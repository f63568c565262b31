"""Differential test of the heuristic's result scoring.

The heuristic scores its final placement in one pass over the placements.
The reference below is the scoring it replaced: a ``DeltaEvaluator`` built
over the placements, whose clean state supplies cost and objectives, and
otherwise the full ``fit_violations`` / ``cost_aggregation`` /
``assignment_objectives`` walk. Both must agree field for field, bit for
bit, on generated graphs and environments: tight capacities (about half
the results are infeasible), zero and missing links, zero demands and
network-only weights.
"""

from typing import Dict

import pytest
from hypothesis import find, given, settings, strategies as st

from repro.distribution.cost import CostWeights, cost_aggregation
from repro.distribution.fit import (
    CandidateDevice,
    DistributionEnvironment,
    fit_violations,
)
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.incremental import DeltaEvaluator
from repro.distribution.pareto import assignment_objectives, evaluator_objectives
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceComponent, ServiceEdge, ServiceGraph
from repro.resources.vectors import ResourceVector, weighted_magnitude

DEVICES = ("d0", "d1", "d2", "d3")

#: Demands: exact binary fractions (sums land exactly on capacities) mixed
#: with arbitrary floats (sums round differently in different orders).
demands = st.one_of(
    st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0)),
    st.floats(min_value=0.01, max_value=3.0),
)
throughputs = st.one_of(
    st.sampled_from((0.0, 0.5, 1.0)),
    st.floats(min_value=0.01, max_value=2.0),
)
#: Link supplies: missing (default 0.0), zero, scarce, ample, unconstrained.
links = st.sampled_from((None, 0.0, 0.3, 4.0, 10.0, float("inf"), float("inf")))
weight_sets = st.sampled_from(
    (
        CostWeights(),
        CostWeights.network_only(),
        CostWeights({"memory": 0.5}, 0.5),
        CostWeights.uniform(["memory", "cpu", "gpu"]),
    )
)


@st.composite
def instances(draw):
    size = draw(st.integers(min_value=2, max_value=8))
    device_count = draw(st.integers(min_value=1, max_value=len(DEVICES)))
    devices = DEVICES[:device_count]
    pin_mode = draw(st.sampled_from(("all", "some", "none")))
    graph = ServiceGraph(name="generated")
    total = {"memory": 0.0, "cpu": 0.0}
    for index in range(size):
        resources = {"memory": draw(demands), "cpu": draw(demands)}
        if draw(st.booleans()):
            resources["gpu"] = 0.0  # a zero-demand resource
        total["memory"] += resources["memory"]
        total["cpu"] += resources["cpu"]
        pinned = pin_mode == "all" or (pin_mode == "some" and draw(st.booleans()))
        graph.add_component(
            ServiceComponent(
                component_id=f"c{index}",
                service_type="generated",
                resources=ResourceVector(resources),
                pinned_to=draw(st.sampled_from(devices)) if pinned else None,
            )
        )
    for target in range(1, size):
        sources = draw(
            st.sets(st.integers(min_value=0, max_value=target - 1), max_size=3)
        )
        for source in sorted(sources):
            graph.add_edge(ServiceEdge(f"c{source}", f"c{target}", draw(throughputs)))
    # Tight capacities: each device gets a share of the graph's total
    # demand around 1/devices, so roughly half the placements overflow.
    candidates = []
    for device_id in devices:
        share = draw(st.sampled_from((0.0, 1.0, 2.0, 3.0, 4.0))) / device_count
        candidates.append(
            CandidateDevice(
                device_id,
                ResourceVector(
                    memory=total["memory"] * share * draw(st.sampled_from((1.0, 2.0))),
                    cpu=total["cpu"] * share * draw(st.sampled_from((1.0, 2.0))),
                ),
            )
        )
    table = {}
    for index, first in enumerate(devices):
        for second in devices[index + 1 :]:
            supply = draw(links)
            if supply is not None:
                table[(first, second)] = supply
    environment = DistributionEnvironment(candidates, bandwidth=table)
    return graph, environment, draw(weight_sets)


def reference_result(graph, environment, weights):
    """The heuristic's previous path, field by field.

    Footnote-3 weights over the environment's total capacity; pinned
    components first, by decreasing requirement; the greedy step on the
    rest (shared with the heuristic, and pinned by the search goldens);
    then a ``DeltaEvaluator`` over the placements, falling back to the
    full Definition 3.4 / Equation 4 walk whenever the evaluator reports
    a violation.
    """
    heuristic = HeuristicDistributor()
    magnitude_weights = dict(weights.resource_weights)
    if not any(w > 0 for w in magnitude_weights.values()):
        names = set()
        for component in graph:
            names.update(component.resources.names())
        magnitude_weights = {name: 1.0 for name in names}
    capacity = ResourceVector.sum(d.available for d in environment.devices)
    magnitude_weights = {
        name: (value / capacity[name] if capacity.get(name, 0.0) > 0 else value)
        for name, value in magnitude_weights.items()
    }
    requirement = {
        c.component_id: weighted_magnitude(c.resources, magnitude_weights)
        for c in graph
    }
    placements: Dict[str, str] = {}
    pinned = [c for c in graph if c.pinned_to is not None]
    pinned.sort(key=lambda c: (-requirement[c.component_id], c.component_id))
    for component in pinned:
        placements[component.component_id] = component.pinned_to
    unplaced = [c.component_id for c in graph if c.component_id not in placements]
    if unplaced:
        heuristic._place_greedily(
            graph, environment, unplaced, placements, requirement, magnitude_weights
        )

    evaluator = DeltaEvaluator(graph, environment, weights, placements=placements)
    assignment = Assignment(placements)
    if not evaluator.has_violations():
        objectives = evaluator_objectives(evaluator, weights)
        return dict(
            feasible=True,
            cost=evaluator.cost,
            violations=(),
            objectives=objectives,
            front=(objectives,),
            placements=list(placements.items()),
            evaluations=len(unplaced),
        )
    violations = tuple(fit_violations(graph, assignment, environment))
    cost = cost_aggregation(graph, assignment, environment, weights)
    objectives = (
        assignment_objectives(graph, assignment, environment, weights)
        if not violations
        else None
    )
    return dict(
        feasible=not violations,
        cost=cost,
        violations=violations,
        objectives=objectives,
        front=(objectives,) if objectives is not None else (),
        placements=list(placements.items()),
        evaluations=len(unplaced),
    )


@given(instances())
@settings(max_examples=400, deadline=None)
def test_heuristic_result_equals_reference_scoring(instance):
    graph, environment, weights = instance
    result = HeuristicDistributor().distribute(graph, environment, weights)
    expected = reference_result(graph, environment, weights)
    assert result.feasible == expected["feasible"]
    assert repr(result.cost) == repr(expected["cost"])
    assert result.evaluations == expected["evaluations"]
    assert list(result.assignment.items()) == expected["placements"]
    assert repr(result.violations) == repr(expected["violations"])
    assert repr(result.objectives) == repr(expected["objectives"])
    assert repr(result.front) == repr(expected["front"])


@pytest.mark.parametrize("feasible", (True, False))
def test_generated_instances_reach_both_outcomes(feasible):
    """Guard the generator: tight capacities must yield both outcomes."""

    def outcome(instance):
        graph, environment, weights = instance
        return HeuristicDistributor().distribute(graph, environment, weights)

    find(
        instances(),
        lambda instance: outcome(instance).feasible == feasible,
        settings=settings(max_examples=200, database=None),
    )
