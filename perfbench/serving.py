"""The serving workloads: ``steady`` and ``surge``.

Each pass builds fresh audio testbeds (one per shard), a
:class:`~repro.server.cluster.DomainCluster` and a simulator, replays one
seeded Poisson trace through :class:`~repro.server.cluster.ClusterSimulatedDriver`
and drains it as fast as the CPU allows. Arrivals are an open loop in
virtual time: every request is submitted when it is due, whatever the
service is doing, and the modelled latency counts its virtual queue wait.
Under the simulator every admission decision is a pure function of the
seed, so two passes of one seed decide identically and only their wall
clock differs; the decision digest proves it after every pass.
"""

from __future__ import annotations

import gc
import hashlib
import random
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.distribution.fit import fit_violations
from repro.distribution.optimal import OptimalDistributor
from repro.experiments.server_sweep import audio_degradation_ladder
from repro.observability.tracing import Tracer, activated
from repro.scenarios.compile import derive_seed
from repro.server.batching import BatchPolicy
from repro.server.cluster import (
    ClusterSimulatedDriver,
    ConsistentHashRouter,
    DomainCluster,
    LeastLoadedRouter,
)
from repro.server.drivers import SimulatedServerDriver
from repro.server.ledger import TransactionState
from repro.server.queue import QueuePolicy
from repro.server.service import ServerRequest
from repro.sim.kernel import Simulator
from repro.workloads.arrivals import arrival_trace

from perfbench.probes import (
    CLOCK,
    DecisionClock,
    GateError,
    LayerTimer,
    PassResult,
    SpeedProbe,
    layer_times,
    mean,
    observe_distribute,
    nearest_rank,
    ratio,
)

DESKTOPS = ("desktop1", "desktop2", "desktop3")
PDA = "jornada"
#: Distinct users the requests come from (the hash router's affinity key).
USERS = 200

#: The ledger methods whose self time the traced pass reports.
LEDGER_METHODS = (
    "prepare",
    "commit",
    "release",
    "abort",
    "prepare_many",
    "commit_many",
    "utilization",
    "environment",
)


@dataclass(frozen=True)
class ServingSpec:
    """One serving workload: cluster shape, traffic mix and load."""

    name: str
    shards: int
    router: str
    batched: bool
    rate_per_s: float
    requests: int
    mean_hold_s: float
    hold_bounds_s: Tuple[float, float]
    pda_share: float
    queue_capacity: int
    queue_policy: QueuePolicy
    deadline_s: float
    min_service_s: float
    profiles: Tuple[Optional[str], ...] = (None,)
    priorities: Tuple[int, ...] = (0,)


#: Below capacity: every request composes, distributes, prepares, commits,
#: deploys and later releases, so the ledger's write path and the configure
#: glue carry the load. A quarter of the clients are PDAs, which makes OC
#: insert a transcoder. Workers are busy for each request's modelled
#: configuration time, so about half the requests wait in a virtual queue.
STEADY = ServingSpec(
    name="steady",
    shards=4,
    router="least_loaded",
    batched=False,
    rate_per_s=18.0,
    requests=3000,
    mean_hold_s=0.55,
    hold_bounds_s=(0.1, 2.2),
    pda_share=0.25,
    queue_capacity=16,
    queue_policy=QueuePolicy.FIFO,
    deadline_s=5.0,
    min_service_s=1e-3,
)

#: Far above capacity: refusals dominate. Deep ladder walks over a full
#: ledger, front-cache lookups for the profiled classes, grouped
#: prepare_many/commit_many rounds, overflow to siblings and queue sheds.
#: The rate and queue are tuned so admitted, degraded, shed and failed
#: each exceed 5% of requests.
SURGE = ServingSpec(
    name="surge",
    shards=8,
    router="hash",
    batched=True,
    rate_per_s=5.0,
    requests=5000,
    mean_hold_s=20.0,
    hold_bounds_s=(3.3, 80.0),
    pda_share=0.3,
    queue_capacity=4,
    queue_policy=QueuePolicy.PRIORITY,
    deadline_s=3.0,
    min_service_s=4.0,
    profiles=(None, None, "fidelity_first", "battery_saver", "latency_first"),
    priorities=(0, 1, 2),
)


def make_requests(spec: ServingSpec, seed: int, testbed) -> Tuple[object, List[ServerRequest]]:
    """The seeded arrival trace and one request per arrival."""
    trace = arrival_trace(
        seed=derive_seed(seed, f"{spec.name}/arrivals"),
        rate_per_s=spec.rate_per_s,
        horizon_s=spec.requests / spec.rate_per_s,
        mean_duration_s=spec.mean_hold_s,
        duration_bounds_s=spec.hold_bounds_s,
        priorities=spec.priorities,
    )
    rng = random.Random(derive_seed(seed, f"{spec.name}/mix"))
    requests = []
    for event in trace:
        client = PDA if rng.random() < spec.pda_share else rng.choice(DESKTOPS)
        requests.append(
            ServerRequest(
                request_id=f"req-{event.request_id}",
                composition=audio_request(testbed, client),
                priority=event.priority,
                deadline_s=spec.deadline_s,
                duration_s=event.duration_s,
                user_id=f"user-{rng.randrange(USERS)}",
                utility_profile=rng.choice(spec.profiles),
            )
        )
    return trace, requests


class DecisionAudit:
    """Checks every placement and commit of the warm-up pass as it happens.

    Installed on the warm-up pass only, while the ledger still holds what
    it committed (after the pass has drained, every device is empty again
    and nothing is left to check):

    - each feasible placement must fit (Definition 3.4) the live
      environment it was planned against, and is re-solved exhaustively
      right away, before anything else can change the ledger;
    - after each ``commit`` and ``commit_many``, the ledger's own audit and
      an independent check of every device's allocations against its
      capacity must both be empty.

    The exhaustive search compares capacities exactly while Definition 3.4
    (``fit_violations``) allows a 1e-9 float tolerance, so on a device
    filled to within rounding error it can call infeasible a placement the
    heuristic validly made. Those placements are counted as disagreements
    and left out of the ratio.
    """

    def __init__(self) -> None:
        self.ratios: List[float] = []
        self.disagreements = 0
        self.optimal = OptimalDistributor()

    def wrap_distributor(self, distributor) -> None:
        inner = distributor.distribute

        def audited(graph, environment):
            result = inner(graph, environment)
            if result.feasible:
                violations = fit_violations(graph, result.assignment, environment)
                if violations:
                    raise GateError(f"placement of {graph.name} violates {violations[0]}")
            best = self.optimal.distribute(graph, environment, distributor.weights)
            if result.feasible and not best.feasible:
                self.disagreements += 1
            elif result.feasible and result.cost < best.cost * (1.0 - 1e-9):
                raise GateError(
                    f"heuristic cost {result.cost!r} below optimal {best.cost!r} "
                    f"on {graph.name}"
                )
            elif best.feasible:
                self.ratios.append(
                    min(1.0, ratio(best.cost, result.cost)) if result.feasible else 0.0
                )
            return result

        distributor.distribute = audited

    def wrap_ledger(self, ledger) -> None:
        for method in ("commit", "commit_many"):
            inner = getattr(ledger, method)

            def audited(*args, _inner=inner, **kwargs):
                result = _inner(*args, **kwargs)
                problems = booking_problems(ledger)
                if problems:
                    raise GateError("ledger audit after commit: " + "; ".join(problems[:3]))
                return result

            setattr(ledger, method, audited)


def booking_problems(ledger) -> List[str]:
    """The ledger's own audit plus a capacity check that does not use it."""
    problems = ledger.audit()
    for device in ledger.server.domain.devices(online_only=True):
        capacity = dict(device.capacity)
        for resource, amount in dict(device.allocated).items():
            if amount > capacity.get(resource, 0.0) + 1e-9:
                problems.append(
                    f"device {device.device_id!r} over-booked on {resource}: "
                    f"{amount!r} > {capacity.get(resource, 0.0)!r}"
                )
    return problems


def _instrument(spec: ServingSpec, cluster: DomainCluster, timer: LayerTimer) -> None:
    """Wrap the public entrypoint of every layer object the pass built."""
    timer.wrap(cluster, "submit", "cluster.submit")
    timer.wrap(cluster.router, "route", "cluster.route")
    timer.wrap(cluster, "least_loaded", "cluster.route")
    for shard in cluster.shards:
        if spec.batched:
            timer.wrap(shard, "process_batch", "batching.batch")
        else:
            timer.wrap(shard, "process_next", "server.process_next")
        timer.wrap(shard.admission, "admit", "admission.admit")
        configurator = shard.configurator
        for method in ("configure", "plan", "deploy_planned"):
            timer.wrap(configurator, method, f"configurator.{method}")
        timer.wrap(configurator.composer, "compose", "composition.compose", _observe_compose)
        timer.wrap(configurator.composer.discovery, "discover", "discovery.discover")
        timer.wrap(configurator.distributor, "distribute", "distribution.distribute", observe_distribute)
        timer.wrap(configurator.distributor.strategy, "distribute", "distribution.heuristic")
        for method in LEDGER_METHODS:
            timer.wrap(shard.ledger, method, f"ledger.{method}", GROUPED.get(method))
        for method in ("deploy", "teardown"):
            timer.wrap(configurator.deployer, method, f"deployment.{method}")


def _observe_compose(timer: LayerTimer, result) -> None:
    timer.count("compose.success", result.success)
    timer.count("compose.corrections", len(result.oc_report.corrections))


def _observe_prepare_many(timer: LayerTimer, results) -> None:
    timer.count("ledger.grouped_prepares", len(results))
    timer.count("ledger.conflicts", sum(error is not None for error in results))


def _observe_commit_many(timer: LayerTimer, results) -> None:
    timer.count("ledger.conflicts", sum(not isinstance(entry, tuple) for entry in results))


#: Observers reading the per-item results of the grouped ledger rounds.
GROUPED = {"prepare_many": _observe_prepare_many, "commit_many": _observe_commit_many}


def _submitted_id(placed) -> Tuple[str, ...]:
    return (placed.request_id,)


def _served_id(outcome) -> Tuple[str, ...]:
    return () if outcome is None else (outcome.request_id,)


def _batch_ids(outcomes) -> Tuple[str, ...]:
    return tuple(outcome.request_id for outcome in outcomes)


def run_pass(spec: ServingSpec, seed: int, mode: str = "plain") -> PassResult:
    """Set up and replay one pass; gate its outcomes.

    ``mode`` is ``plain`` (decision clock only), ``audit`` (plus the
    optimal re-solve, for the warm-up), ``traced`` (layer timers instead of
    the decision clock) or ``tracer`` (decision clock under the program's
    own span tracer, clocked by ``time.perf_counter``).
    """
    gc.collect()
    probe = SpeedProbe()
    probe.calibrate()
    simulator = Simulator()
    clock = SimulatedServerDriver.clock(simulator)
    testbeds = [build_audio_testbed() for _ in range(spec.shards)]
    trace, requests = make_requests(spec, seed, testbeds[0])
    ladder = audio_degradation_ladder()
    router = (
        LeastLoadedRouter()
        if spec.router == "least_loaded"
        else ConsistentHashRouter(spec.shards)
    )
    cluster = DomainCluster.build(
        [testbed.configurator for testbed in testbeds],
        router=router,
        batched=spec.batched,
        batch=BatchPolicy() if spec.batched else None,
        ladder=ladder,
        queue_capacity=spec.queue_capacity,
        queue_policy=spec.queue_policy,
        clock=clock,
        skip_downloads=True,
    )
    driver = ClusterSimulatedDriver(
        cluster, simulator, workers=1, min_service_s=spec.min_service_s
    )
    driver.schedule_trace(trace, lambda event: requests[event.request_id])
    probe.calibrate()
    setup_s = probe.scaled_s(0, 1)

    decisions = DecisionClock(probe)
    timer: Optional[LayerTimer] = None
    audit: Optional[DecisionAudit] = None
    if mode == "traced":
        timer = LayerTimer(probe)
        _instrument(spec, cluster, timer)
    else:
        decisions.wrap(cluster, "submit", _submitted_id)
        for shard in cluster.shards:
            if spec.batched:
                decisions.wrap(shard, "process_batch", _batch_ids)
            else:
                decisions.wrap(shard, "process_next", _served_id)
    if mode == "audit":
        audit = DecisionAudit()
        for shard in cluster.shards:
            audit.wrap_distributor(shard.configurator.distributor)
            audit.wrap_ledger(shard.ledger)

    tracing = activated(Tracer(clock=CLOCK)) if mode == "tracer" else nullcontext()
    with tracing:
        probe.calibrate()
        first = probe.segment
        driver.run()
        probe.calibrate()
    last = probe.segment

    outcomes = driver.outcomes()
    layers = _layer_metrics(cluster, outcomes, timer, probe.raw_s(first, last)) if timer else None
    metrics = gate(cluster, requests, outcomes, ladder)
    if audit is not None:
        metrics["optimal_ratio"] = mean(audit.ratios)
        layers = {"distribution.optimal_disagreements": audit.disagreements}
    return PassResult(
        setup_s=setup_s,
        wall_s=probe.scaled_s(first, last),
        decisions=len(outcomes),
        decide_s=decisions.decide_s(),
        digest=digest(outcomes),
        metrics=metrics,
        layers=layers,
        kernel_s=probe.kernel_s,
    )


def digest(outcomes) -> str:
    """sha256 of the sorted ``(request_id, status, level, shed_reason)`` rows."""
    rows = sorted(
        f"{o.request_id}|{o.status.value}|{o.level}|{o.shed_reason}" for o in outcomes
    )
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def gate(cluster, requests, outcomes, ladder) -> Dict[str, float]:
    """Check the drained pass's invariants; return its deterministic outcome metrics.

    Placements and commits are checked as they happen, on the warm-up pass
    (:class:`DecisionAudit`); every other pass must reproduce its decision
    digest and these metrics. Raises :class:`GateError` on any violation.
    """
    problems = cluster.audit()
    if problems:
        raise GateError("ledger audit: " + "; ".join(problems[:3]))
    for index, shard in enumerate(cluster.shards):
        held = shard.ledger.transactions(TransactionState.COMMITTED)
        held += shard.ledger.transactions(TransactionState.PREPARED)
        if held:
            raise GateError(
                f"shard{index} still holds {len(held)} transactions after every "
                f"session departed"
            )
    by_id = {outcome.request_id: outcome for outcome in outcomes}
    if len(by_id) != len(outcomes) or set(by_id) != {r.request_id for r in requests}:
        raise GateError(
            f"{len(requests)} requests submitted but {len(by_id)} distinct final "
            f"outcomes from {len(outcomes)} reports"
        )
    whole = cluster.metrics.snapshot()["cluster"]
    submitted, admitted = whole["submitted"], whole["admitted"]
    if submitted != len(requests) or submitted != admitted + whole["shed_final"] + whole["failed"]:
        raise GateError(
            f"submitted {submitted} != admitted {admitted} + shed "
            f"{whole['shed_final']} + failed {whole['failed']}"
        )
    placed = [outcome for outcome in outcomes if outcome.admitted]
    if len(placed) != admitted:
        raise GateError(f"{len(placed)} admitted outcomes but {admitted} counted")
    top = f"admit@{ladder.levels[0].label}"
    model_ms = [
        sample
        for shard in cluster.shards
        for sample in shard.metrics.stage("total_ms").iter_samples()
    ]
    return {
        "admitted_ratio": ratio(admitted, submitted),
        "full_fidelity_ratio": ratio(sum(o.level == top for o in placed), submitted),
        "model_p50_ms": nearest_rank(model_ms, 0.50),
        "model_p99_ms": nearest_rank(model_ms, 0.99),
        "cost_mean": mean([o.attempts[-1].distribution.cost for o in placed]),
    }


def _layer_metrics(cluster, outcomes, timer: LayerTimer, wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced pass (read before the gate runs)."""
    snapshot = cluster.metrics.snapshot()
    routing = snapshot["routing"]
    counters = {
        name: sum(shard.metrics.count(name) for shard in cluster.shards)
        for name in ("shed_queue_full", "shed_overload", "shed_deadline", "conflict_retries")
    }
    waits = [
        sample
        for shard in cluster.shards
        for sample in shard.metrics.stage("queue_wait_ms").iter_samples()
    ]
    batch_sizes = [
        sample
        for index in range(cluster.shard_count)
        for sample in cluster.registry.histogram(f"cluster.shard{index}.batch_size").iter_samples()
    ]
    walked = [outcome for outcome in outcomes if outcome.attempts]
    caches = [shard.admission.front_cache for shard in cluster.shards]
    hits = sum(cache.hits for cache in caches if cache is not None)
    lookups = hits + sum(cache.misses for cache in caches if cache is not None)
    calls, counts = timer.calls, timer.counters
    prepares = calls["ledger.prepare"] + counts["ledger.grouped_prepares"]
    conflicts = timer.raised["ledger.prepare"] + counts["ledger.conflicts"]
    layers = layer_times(timer, wall_s)
    layers.update(
        {
            "cluster.utilization_probes_per_request": ratio(
                calls["ledger.utilization"], len(outcomes)
            ),
            "cluster.overflow.attempts": routing["overflow_attempts"],
            "cluster.overflow.rescue_ratio": ratio(
                routing["overflow_rescued"], routing["overflow_attempts"]
            ),
            "queue.shed_queue_full": counters["shed_queue_full"],
            "queue.shed_overload": counters["shed_overload"],
            "queue.shed_deadline": counters["shed_deadline"],
            "queue.wait_p50_ms": nearest_rank(waits, 0.50),
            "admission.rungs_per_request": ratio(
                sum(len(outcome.attempts) for outcome in walked), len(walked)
            ),
            "admission.conflict_retries": counters["conflict_retries"],
            "admission.front_cache.hit_ratio": ratio(hits, lookups),
            "batching.batch_size_mean": mean(batch_sizes),
            "configurator.env_rebuilds_per_plan": ratio(
                calls["ledger.environment"], calls["configurator.plan"]
            ),
            "composition.compose.success_ratio": ratio(
                counts["compose.success"], calls["composition.compose"]
            ),
            "composition.compose.corrections_per_call": ratio(
                counts["compose.corrections"], calls["composition.compose"]
            ),
            "ledger.conflict_ratio": ratio(conflicts, prepares),
        }
    )
    return layers
