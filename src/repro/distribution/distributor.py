"""Distribution strategy interface and the service distributor facade."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.distribution.cost import CostWeights, cost_aggregation
from repro.distribution.fit import (
    CandidateDevice,
    DistributionEnvironment,
    FitViolation,
    fit_violations,
)
from repro.distribution.pareto import (
    ParetoPoint,
    assignment_objectives,
    evaluator_objectives,
)
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph
from repro.observability.tracing import get_tracer


@dataclass(frozen=True)
class DistributionResult:
    """Outcome of one distribution attempt.

    ``feasible`` means the assignment satisfies Definition 3.4; an
    infeasible result still carries the best assignment the strategy could
    produce (useful for diagnostics) together with its violations.
    ``evaluations`` counts candidate (partial) assignments examined, the
    search-effort metric reported by the benchmark harness.
    ``budget_exhausted`` is set by bounded searches (currently only the
    optimal distributor) when they stopped before proving optimality.

    ``objectives`` is the returned assignment's position on the four
    multi-objective axes (None when infeasible), and ``front`` the
    Pareto-non-dominated set of configurations the search visited —
    a singleton for single-trajectory strategies, richer for the local
    search, always deterministically ordered (see
    :mod:`repro.distribution.pareto`).
    """

    strategy: str
    assignment: Optional[Assignment]
    feasible: bool
    cost: float
    evaluations: int = 0
    violations: Tuple[FitViolation, ...] = ()
    budget_exhausted: bool = False
    objectives: Optional[ParetoPoint] = None
    front: Tuple[ParetoPoint, ...] = ()

    def __post_init__(self) -> None:
        if self.feasible and self.assignment is None:
            raise ValueError("a feasible result must carry an assignment")


class DistributionStrategy(ABC):
    """Interface of the k-cut search algorithms.

    Strategies read placement pins from the graph's components
    (``ServiceComponent.pinned_to``) and must honour them.
    """

    name: str = "strategy"

    @abstractmethod
    def distribute(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: Optional[CostWeights] = None,
    ) -> DistributionResult:
        """Search for a k-cut of ``graph`` over the environment's devices."""

    def _finalize(
        self,
        graph: ServiceGraph,
        placements: Optional[Dict[str, str]],
        environment: DistributionEnvironment,
        weights: CostWeights,
        evaluations: int,
        evaluator=None,
        front: Optional[Tuple[ParetoPoint, ...]] = None,
    ) -> DistributionResult:
        """Package a placement dict into a checked result.

        When the strategy hands over its :class:`DeltaEvaluator` (the local
        search does) and that evaluator reports a clean state, its
        incrementally maintained cost is used directly, skipping the
        O(V+E) final re-walk. Otherwise the result carries the canonical
        ``fit_violations`` diagnostics and the ``cost_aggregation`` cost —
        infinite when a component sits on a device outside the environment.
        The heuristic does not come through here: it scores its placement
        in one pass of its own (``HeuristicDistributor._score``).

        A feasible result is scored on the multi-objective axes; ``front``
        overrides the default singleton front (the local search passes
        the non-dominated set it visited).
        """
        if placements is None or len(placements) != len(graph):
            return DistributionResult(
                strategy=self.name,
                assignment=Assignment(placements or {}),
                feasible=False,
                cost=float("inf"),
                evaluations=evaluations,
                violations=(FitViolation("placement", "*", "incomplete"),),
            )
        assignment = Assignment(placements)
        if (
            evaluator is not None
            and evaluator.placements == placements
            and not evaluator.has_violations()
        ):
            objectives = evaluator_objectives(evaluator, weights)
            return DistributionResult(
                strategy=self.name,
                assignment=assignment,
                feasible=True,
                cost=evaluator.cost,
                evaluations=evaluations,
                violations=(),
                objectives=objectives,
                front=front if front is not None else (objectives,),
            )
        violations = tuple(fit_violations(graph, assignment, environment))
        cost = (
            float("inf")
            if any(v.kind == "placement" for v in violations)
            else cost_aggregation(graph, assignment, environment, weights)
        )
        objectives = (
            assignment_objectives(graph, assignment, environment, weights)
            if not violations
            else None
        )
        return DistributionResult(
            strategy=self.name,
            assignment=assignment,
            feasible=not violations,
            cost=cost,
            evaluations=evaluations,
            violations=violations,
            objectives=objectives,
            front=(
                front
                if front is not None
                else ((objectives,) if objectives is not None else ())
            ),
        )


def validate_pins(graph: ServiceGraph, environment: DistributionEnvironment) -> None:
    """Raise ValueError when a pin references a device not in the environment."""
    known = set(environment.device_ids())
    for component in graph:
        if component.pinned_to is not None and component.pinned_to not in known:
            raise ValueError(
                f"component {component.component_id!r} pinned to unknown device "
                f"{component.pinned_to!r}"
            )


class ServiceDistributor:
    """Facade of the distribution tier.

    Binds a strategy and a weight vector, and accepts device snapshots in
    the forms the substrates produce (Device objects, candidate devices, or
    a prepared environment). "The service distributor is invoked whenever
    some significant resource fluctuations or device changes happen during
    runtime" — callers simply re-invoke :meth:`distribute` with a fresh
    snapshot.
    """

    def __init__(
        self,
        strategy: DistributionStrategy,
        weights: Optional[CostWeights] = None,
    ) -> None:
        self.strategy = strategy
        self.weights = weights or CostWeights()

    def distribute(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
    ) -> DistributionResult:
        """Run the bound strategy on a prepared environment."""
        with get_tracer().span(
            "distribution.search",
            strategy=self.strategy.name,
            components=len(graph),
        ) as span:
            graph.validate()
            validate_pins(graph, environment)
            result = self.strategy.distribute(graph, environment, self.weights)
            span.set("feasible", result.feasible)
            span.set("evaluations", result.evaluations)
            return result

    def distribute_on_devices(
        self,
        graph: ServiceGraph,
        devices: Iterable,
        topology=None,
    ) -> DistributionResult:
        """Run against live Device objects (and optionally a topology).

        ``devices`` may be :class:`repro.domain.Device` instances or
        :class:`CandidateDevice` snapshots; Devices are snapshotted at their
        current availability.
        """
        candidates: List[CandidateDevice] = []
        for device in devices:
            if isinstance(device, CandidateDevice):
                candidates.append(device)
            else:
                candidates.append(
                    CandidateDevice(device.device_id, device.available())
                )
        if topology is not None:
            environment = DistributionEnvironment.from_topology(candidates, topology)
        else:
            environment = DistributionEnvironment(candidates)
        return self.distribute(graph, environment)
