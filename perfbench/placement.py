"""The ``placement`` workload: the distribution tier alone.

Two seeded graph sets, placed through
:class:`~repro.distribution.distributor.ServiceDistributor`:

- Table 1: random 10–20-component graphs on the paper's PC + PDA pair,
  each placed by the heuristic and by the exhaustive
  :class:`~repro.distribution.optimal.OptimalDistributor`. The heuristic's
  mean optimal-cost/found-cost over these graphs is Table 1's "Average".
- Scaling: random graphs of 25 to 200 components on eight devices, sizes
  evenly spaced over that range, each placed by
  the heuristic and by the local search that refines it. The local search
  is capped (two relocation sweeps, no swaps): uncapped it took seconds
  per placement at 200 components.
"""

from __future__ import annotations

import gc
import hashlib
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.distribution.cost import CostWeights
from repro.distribution.distributor import ServiceDistributor
from repro.distribution.fit import CandidateDevice, DistributionEnvironment, fit_violations
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.local_search import LocalSearchDistributor
from repro.distribution.optimal import OptimalDistributor
from repro.graph.generators import RandomGraphConfig, random_service_graph
from repro.observability.tracing import Tracer, activated
from repro.resources.vectors import ResourceVector
from repro.runtime.deployment import DeploymentCostModel
from repro.scenarios.compile import derive_seed
from repro.workloads.generator import Table1Workload

from perfbench.probes import (
    CLOCK,
    GateError,
    LayerTimer,
    PassResult,
    SpeedProbe,
    layer_times,
    mean,
    nearest_rank,
    observe_distribute,
    ratio,
)


@dataclass(frozen=True)
class PlacementSpec:
    """Sizes of the two graph sets."""

    name: str = "placement"
    table1_sets: int = 8
    scaling_graphs: int = 12
    scaling_nodes: Tuple[int, int] = (25, 200)


PLACEMENT = PlacementSpec()

#: Devices of the scaling environment.
SCALING_DEVICES = 8
#: Relocation sweeps the capped local search may make.
LOCAL_SEARCH_ROUNDS = 2


@dataclass(frozen=True)
class Job:
    """One placement: a graph, its environment and the distributor to use."""

    graph: object
    environment: DistributionEnvironment
    distributor: ServiceDistributor
    table1: bool


def scaling_environment(devices: int) -> DistributionEnvironment:
    """``devices`` identical desktops, fully meshed at 100 Mbps."""
    ids = [f"dev{i}" for i in range(devices)]
    return DistributionEnvironment(
        [CandidateDevice(device, ResourceVector(memory=200.0, cpu=2.0)) for device in ids],
        bandwidth={
            (first, second): 100.0
            for index, first in enumerate(ids)
            for second in ids[index + 1 :]
        },
    )


def make_jobs(
    spec: PlacementSpec, seed: int, probe: SpeedProbe
) -> Tuple[List[Job], Dict[str, object]]:
    """Every placement of one pass, in run order, plus the strategies used.

    Table 1 set 0 is seeded with the run seed itself, so ``--seed 2002``
    includes the paper's graph set; the other sets use derived seeds.
    ``probe`` calibrates between graph sets and between scaling graphs.
    """
    heuristic = HeuristicDistributor()
    strategies = {
        "heuristic": heuristic,
        "optimal": OptimalDistributor(),
        "local_search": LocalSearchDistributor(
            base=heuristic, max_rounds=LOCAL_SEARCH_ROUNDS, use_swaps=False
        ),
    }
    jobs: List[Job] = []
    for index in range(spec.table1_sets):
        probe.maybe_calibrate()
        workload = Table1Workload(
            seed=seed if index == 0 else derive_seed(seed, f"{spec.name}/table1/{index}")
        )
        for case in workload.cases():
            for name in ("optimal", "heuristic"):
                jobs.append(
                    Job(
                        case.graph,
                        case.environment,
                        ServiceDistributor(strategies[name], case.weights),
                        table1=True,
                    )
                )
    rng = random.Random(derive_seed(seed, f"{spec.name}/scaling"))
    environment = scaling_environment(SCALING_DEVICES)
    weights = CostWeights()
    low, high = spec.scaling_nodes
    for index in range(spec.scaling_graphs):
        # Sizes are evenly spaced over the range so every seed covers the
        # whole scaling curve; the seed draws each graph's structure.
        nodes = low + round(index * (high - low) / (spec.scaling_graphs - 1))
        probe.maybe_calibrate()
        graph = random_service_graph(
            rng,
            RandomGraphConfig(
                node_count=(nodes, nodes),
                out_degree=(3, 6),
                memory_mb=(0.1, 1.0),
                cpu_fraction=(0.001, 0.01),
            ),
            name=f"scaling-{index}",
        )
        for name in ("heuristic", "local_search"):
            jobs.append(
                Job(graph, environment, ServiceDistributor(strategies[name], weights), table1=False)
            )
    return jobs, strategies


def run_pass(spec: PlacementSpec, seed: int, mode: str = "plain") -> PassResult:
    """Generate the graphs, place every one of them, gate the results.

    ``mode`` is ``plain``/``audit`` (untraced), ``traced`` (layer timers on
    the distributors and strategies) or ``tracer`` (under the program's own
    span tracer).
    """
    gc.collect()
    probe = SpeedProbe()
    probe.calibrate()
    jobs, strategies = make_jobs(spec, seed, probe)
    probe.calibrate()
    setup_s = probe.scaled_s(0, probe.segment)

    timer: Optional[LayerTimer] = None
    if mode == "traced":
        timer = LayerTimer(probe)
        for name, strategy in strategies.items():
            timer.wrap(strategy, "distribute", f"distribution.{name}")
        for job in jobs:
            timer.wrap(job.distributor, "distribute", "distribution.distribute", observe_distribute)

    calls: List[Tuple[float, int]] = []
    results = []
    tracing = activated(Tracer(clock=CLOCK)) if mode == "tracer" else nullcontext()
    with tracing:
        probe.calibrate()
        first = probe.segment
        for job in jobs:
            probe.maybe_calibrate()
            call_start = CLOCK()
            results.append(job.distributor.distribute(job.graph, job.environment))
            calls.append((CLOCK() - call_start, probe.segment))
        probe.calibrate()
    last = probe.segment

    return PassResult(
        setup_s=setup_s,
        wall_s=probe.scaled_s(first, last),
        decisions=len(results),
        decide_s=[elapsed * probe.factor(segment) for elapsed, segment in calls],
        digest=digest(jobs, results),
        metrics=gate(jobs, results),
        layers=layer_times(timer, probe.raw_s(first, last)) if timer else None,
        kernel_s=probe.kernel_s,
    )


def digest(jobs: List[Job], results) -> str:
    """sha256 of the ``(graph, strategy, feasible, cost)`` rows, in run order."""
    rows = (
        f"{job.graph.name}|{result.strategy}|{result.feasible}|{result.cost!r}"
        for job, result in zip(jobs, results)
    )
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def gate(jobs: List[Job], results) -> Dict[str, float]:
    """Check Definition 3.4 and the optimality bound; return outcome metrics.

    Jobs come in pairs per graph: optimal then heuristic on Table 1, the
    heuristic then the local search on the scaling set.
    """
    for job, result in zip(jobs, results):
        if result.feasible:
            violations = fit_violations(job.graph, result.assignment, job.environment)
            if violations:
                raise GateError(
                    f"{result.strategy} placement of {job.graph.name} violates {violations[0]}"
                )
    table1_ratios: List[float] = []
    best_hits = 0
    for pair in zip(results[0::2], results[1::2]):
        best_cost = min(r.cost for r in pair if r.feasible) if any(r.feasible for r in pair) else 0.0
        best_hits += sum(r.feasible and r.cost <= best_cost * (1.0 + 1e-9) for r in pair)
    for job, (optimal, heuristic) in zip(jobs[0::2], zip(results[0::2], results[1::2])):
        if not job.table1:
            continue
        if optimal.budget_exhausted or (
            heuristic.feasible and heuristic.cost < optimal.cost * (1.0 - 1e-9)
        ):
            raise GateError(
                f"heuristic cost {heuristic.cost!r} below optimal {optimal.cost!r} "
                f"on {job.graph.name}"
            )
        if optimal.feasible:
            table1_ratios.append(
                min(1.0, ratio(optimal.cost, heuristic.cost)) if heuristic.feasible else 0.0
            )
    # The cost model counts evaluations, so one search's modelled time sits
    # on a 2 ms grid; per Table 1 graph, both searches summed spread widely
    # enough for the percentiles to follow the inputs.
    model = DeploymentCostModel()
    model_ms = [
        (model.distribution_time_s(optimal) + model.distribution_time_s(heuristic)) * 1000.0
        for job, optimal, heuristic in zip(jobs[0::2], results[0::2], results[1::2])
        if job.table1
    ]
    feasible = [result for result in results if result.feasible]
    return {
        "admitted_ratio": ratio(len(feasible), len(results)),
        "full_fidelity_ratio": ratio(best_hits, len(results)),
        "model_p50_ms": nearest_rank(model_ms, 0.50),
        "model_p99_ms": nearest_rank(model_ms, 0.99),
        "cost_mean": mean([result.cost for result in feasible]),
        "optimal_ratio": mean(table1_ratios),
    }
