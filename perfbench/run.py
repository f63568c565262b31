"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

A run generates every input from ``--seed``, replays one discarded warm-up
pass (which also records the decision digest and, on the serving
workloads, re-solves each placement exhaustively), then repeats untraced
passes of the same inputs until ``--seconds`` have been measured and
reports medians over them. Wall times are scaled to a reference machine
speed by :class:`~perfbench.probes.SpeedProbe`. ``--trace 1`` spends part of the time on
untraced passes, then runs one pass with timing wrappers on every layer
and one under the program's own span tracer, and reports the per-layer
metrics instead. Every pass is gated: a broken invariant or a decision
digest that differs from the warm-up's exits non-zero without a result.

The last line of standard output is the result object; the lines before
it stamp the run (Python version, CPU count, git revision, dirty tree),
give the measured machine speed (the reference kernel's median duration)
and print the metrics as a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

#: Share of ``--seconds`` a traced run spends on untraced passes, which set
#: the baseline the two overhead ratios compare against.
TRACED_RUN_UNTRACED_SHARE = 0.6


def git_stamp(root: Path) -> Dict[str, object]:
    """Revision and dirty flag of ``root``; ``None`` outside a git checkout."""
    if not (root / ".git").exists():
        return {"git_rev": None, "dirty": None}
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"git_rev": git("rev-parse", "HEAD"), "dirty": None if status is None else bool(status)}


def stamp() -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        **git_stamp(ROOT),
    }


def workloads() -> Dict[str, tuple]:
    """Workload name -> (module, spec). Imports the program lazily."""
    from perfbench import placement, serving

    return {
        "steady": (serving, serving.STEADY),
        "surge": (serving, serving.SURGE),
        "placement": (placement, placement.PLACEMENT),
    }


def measure(module, spec, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Run the warm-up and the measured passes; return metrics by name."""
    from perfbench.probes import CLOCK, GateError, nearest_rank

    warm = module.run_pass(spec, seed, "audit")
    outcome = dict(warm.metrics)

    def checked(result):
        if result.digest != warm.digest:
            raise GateError(f"decision digest {result.digest} != warm-up {warm.digest}")
        for name, value in result.metrics.items():
            if value != outcome[name]:
                raise GateError(f"{name} {value!r} != warm-up {outcome[name]!r}")
        return result

    budget = seconds * (TRACED_RUN_UNTRACED_SHARE if trace else 1.0)
    passes: List[object] = []
    start = CLOCK()
    while len(passes) < 3 or CLOCK() - start < budget:
        passes.append(checked(module.run_pass(spec, seed, "plain")))
    rate = statistics.median(p.decisions / p.wall_s for p in passes)
    kernel_s = statistics.median(p.kernel_s for p in passes)
    print(f"speed reference_kernel_us={kernel_s * 1e6:.1f} passes={len(passes)}")
    attempted = sum(p.decisions for p in passes)
    if trace:
        traced = checked(module.run_pass(spec, seed, "traced"))
        tracer = checked(module.run_pass(spec, seed, "tracer"))
        metrics = {**(warm.layers or {}), **traced.layers}
        metrics["bench.reference_kernel_us"] = kernel_s * 1e6
        metrics["bench.trace_overhead_ratio"] = traced.decisions / traced.wall_s / rate
        metrics["bench.program_tracer_overhead_ratio"] = tracer.decisions / tracer.wall_s / rate
        return {"attempted": attempted, "metrics": metrics}
    metrics = dict(outcome)
    metrics.update(
        {
            "decisions_per_s": rate,
            "decide_p50_us": statistics.median(nearest_rank(p.decide_s, 0.50) for p in passes) * 1e6,
            "decide_p99_us": statistics.median(nearest_rank(p.decide_s, 0.99) for p in passes) * 1e6,
            "setup_s": statistics.median(p.setup_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    return {"attempted": attempted, "metrics": metrics}


def result_object(measured: Dict[str, object], declared: List[dict], trace: bool) -> Dict[str, object]:
    """The result object: every declared metric with its unit.

    A per-layer metric of a layer the workload never enters reads 0.
    """
    values = measured["metrics"]
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in values and not trace:
            raise KeyError(f"workload did not produce end-to-end metric {name!r}")
        metrics[name] = {"value": values.get(name, 0.0), "unit": entry["unit"]}
    return {
        "correct": True,
        "attempted": measured["attempted"],
        "failed": 0,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {source}", file=sys.stderr)
        return 2
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT), str(source)]

    from perfbench.probes import GateError

    table = workloads()
    if args.workload not in table:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(table)}", file=sys.stderr)
        return 2
    module, spec = table[args.workload]
    print("stamp " + json.dumps(stamp(), sort_keys=True))
    try:
        measured = measure(module, spec, args.seed, args.seconds, bool(args.trace))
    except GateError as exc:
        print(f"perfbench: correctness gate failed: {exc}", file=sys.stderr)
        return 3
    declared = declaration["per_layer" if args.trace else "end_to_end"]
    result = result_object(measured, declared, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<10} {name:<48} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
