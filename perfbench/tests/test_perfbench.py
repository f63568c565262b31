"""The benchmark's own checks: tiny runs of every workload, and the gate.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import placement, run, serving
from perfbench.probes import GateError
from repro.distribution.optimal import OptimalDistributor
from repro.resources.vectors import ResourceVector
from repro.server.ledger import ReservationLedger

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "steady": (serving, dataclasses.replace(serving.STEADY, requests=60)),
    "surge": (serving, dataclasses.replace(serving.SURGE, requests=80)),
    "placement": (
        placement,
        dataclasses.replace(
            placement.PLACEMENT, table1_sets=1, scaling_graphs=2, scaling_nodes=(25, 30)
        ),
    ),
}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_declared_metric(workload, trace):
    module, spec = TINY[workload]
    measured = run.measure(module, spec, seed=3, seconds=0.0, trace=trace)
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    result = run.result_object(measured, declared, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [name for name in result["metrics"]] == [entry["name"] for entry in declared]
    for entry in declared:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_workload_names_match_declaration():
    assert sorted(entry["name"] for entry in DECLARED["workloads"]) == sorted(run.workloads())


@pytest.mark.parametrize("workload", ["steady", "surge"])
def test_layer_self_times_and_residual_add_up_to_wall_time(workload):
    module, spec = TINY[workload]
    layers = module.run_pass(spec, 5, "traced").layers
    self_ms = sum(value for name, value in layers.items() if name.endswith(".self_ms"))
    assert layers["bench.unattributed_ms"] >= 0.0
    assert self_ms + layers["bench.unattributed_ms"] == pytest.approx(layers["bench.traced_wall_ms"])
    assert layers.get("ledger.prepare.calls", 0) + layers.get("ledger.prepare_many.calls", 0) > 0


def test_deterministic_metrics_and_digest_repeat_across_modes():
    module, spec = TINY["surge"]
    passes = [module.run_pass(spec, 7, mode) for mode in ("audit", "plain", "traced", "tracer")]
    assert len({p.digest for p in passes}) == 1
    for other in passes[1:]:
        assert other.metrics == {k: v for k, v in passes[0].metrics.items() if k in other.metrics}


def test_another_seed_decides_differently():
    module, spec = TINY["steady"]
    assert module.run_pass(spec, 1).digest != module.run_pass(spec, 2).digest


def test_unbalanced_ledger_trips_the_gate(monkeypatch):
    # Sessions that never give their capacity back leave committed holds.
    monkeypatch.setattr(ReservationLedger, "release", lambda self, txn: None)
    module, spec = TINY["steady"]
    with pytest.raises(GateError, match="still holds"):
        module.run_pass(spec, 1)


def test_over_booking_ledger_trips_the_gate(monkeypatch):
    # A ledger that admits every hold lets a batch planned against one
    # snapshot over-book its devices; only a check made while the sessions
    # are still held can see that.
    monkeypatch.setattr(ResourceVector, "fits_within", lambda self, availability: True)
    module, spec = TINY["surge"]
    with pytest.raises(GateError, match="over-booked"):
        module.run_pass(spec, 1, "audit")


def test_digest_mismatch_trips_the_gate(monkeypatch):
    module, spec = TINY["steady"]
    digests = iter(["warm-up", "differs"])
    monkeypatch.setattr(serving, "digest", lambda outcomes: next(digests, "differs"))
    with pytest.raises(GateError, match="decision digest"):
        run.measure(module, spec, seed=1, seconds=0.0, trace=False)


def test_heuristic_beating_the_optimum_trips_the_gate(monkeypatch):
    original = OptimalDistributor.distribute

    def worse(self, graph, environment, weights=None):
        result = original(self, graph, environment, weights)
        return dataclasses.replace(result, cost=result.cost * 2.0 + 1.0)

    monkeypatch.setattr(OptimalDistributor, "distribute", worse)
    module, spec = TINY["placement"]
    with pytest.raises(GateError, match="below optimal"):
        module.run_pass(spec, 1)


def test_run_without_program_sources_exits_nonzero(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
