"""The per-call search tables of the distribution strategies.

``SearchState`` scores each branch-and-bound placement from per-call
tables; ``cost.marginal_cost`` is the reference formula it must match bit
for bit, along arbitrary place/unplace walks. The tables read each
ordered device pair's bandwidth once per call, and the resource prune
allows Definition 3.4's tolerance.
"""

import random

import pytest

from repro.distribution.cost import CostWeights, marginal_cost
from repro.distribution.fit import (
    CandidateDevice,
    DistributionEnvironment,
    fit_violations,
)
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.incremental import SearchState
from repro.distribution.optimal import OptimalDistributor
from repro.graph.generators import RandomGraphConfig, random_service_graph
from repro.graph.service_graph import ServiceComponent, ServiceEdge, ServiceGraph
from repro.resources.vectors import CPU, MEMORY, ResourceVector
from repro.workloads.generator import Table1Workload
from tests.distribution.test_search_golden import scaling_environment, scaling_graph

#: Bandwidth reads allowed per ordered device pair in one distribute call:
#: one for the search plus the final result's fit, cost and objective
#: walks. Re-reading per search node exceeds it by orders of magnitude.
READS_PER_PAIR = 4

WEIGHTS = (
    CostWeights(),
    CostWeights.network_only(),
    CostWeights.uniform([MEMORY, CPU]),
    CostWeights({MEMORY: 0.5}, 0.5),
)


def _walk_environment(rng):
    """Three roomy devices; one link unconstrained, one missing (zero)."""
    devices = [
        CandidateDevice(
            f"d{i}",
            ResourceVector(memory=rng.uniform(100.0, 400.0), cpu=rng.uniform(1.0, 4.0)),
        )
        for i in range(3)
    ]
    table = {("d0", "d1"): rng.uniform(2.0, 20.0), ("d0", "d2"): float("inf")}
    return DistributionEnvironment(devices, bandwidth=table)


@pytest.mark.parametrize("seed", range(16))
def test_search_state_increments_equal_marginal_cost(seed):
    rng = random.Random(seed)
    graph = random_service_graph(
        rng, RandomGraphConfig(node_count=(6, 14)), name=f"walk{seed}"
    )
    environment = _walk_environment(rng)
    weights = WEIGHTS[seed % len(WEIGHTS)]
    devices = environment.device_ids()
    state = SearchState(graph, environment, weights, devices)
    ids = graph.component_ids()
    accepted = 0
    for _ in range(300):
        placed = list(state.placements)
        if placed and (len(placed) == len(ids) or rng.random() < 0.35):
            component_id = rng.choice(placed)
            state.unplace(component_id, state.placements[component_id])
            assert component_id not in state.placements
            continue
        component_id = rng.choice([c for c in ids if c not in state.placements])
        device_id = rng.choice(devices)
        expected = marginal_cost(
            graph, dict(state.placements), environment, weights, component_id, device_id
        )
        increment = state.try_place(component_id, device_id)
        if increment is None:
            assert component_id not in state.placements
            continue
        assert repr(increment) == repr(expected)
        assert state.placements[component_id] == device_id
        accepted += 1
    assert accepted > 40


def _counting(environment):
    """The same environment, with every bandwidth read counted."""
    reads = [0]

    def bandwidth(first, second):
        reads[0] += 1
        return environment.bandwidth(first, second)

    return DistributionEnvironment(environment.devices, bandwidth=bandwidth), reads


def _ordered_pairs(environment):
    return len(environment) * (len(environment) - 1)


def test_optimal_search_reads_each_pair_a_constant_number_of_times():
    workload = Table1Workload(seed=2002)
    environment, reads = _counting(workload.environment())
    bound = READS_PER_PAIR * _ordered_pairs(environment)
    optimal = OptimalDistributor()
    worst = 0
    for case in workload.cases():
        reads[0] = 0
        optimal.distribute(case.graph, environment, case.weights)
        worst = max(worst, reads[0])
    assert 0 < worst <= bound


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_heuristic_reads_each_pair_a_constant_number_of_times(seed):
    environment, reads = _counting(scaling_environment())
    graph = scaling_graph(seed, 100)
    result = HeuristicDistributor().distribute(graph, environment, CostWeights())
    assert result.feasible
    assert 0 < reads[0] <= READS_PER_PAIR * _ordered_pairs(environment)


def _component(component_id, **resources):
    return ServiceComponent(
        component_id=component_id,
        service_type="test",
        resources=ResourceVector(**resources),
    )


def _near_full_graph():
    """Two components whose demands exceed capacity by 5e-10 in sum.

    Definition 3.4 (``fit_violations``) allows 1e-9 of slack, so putting
    both on the one device is a valid placement.
    """
    graph = ServiceGraph(name="near-full")
    graph.add_component(_component("a", memory=5.0, cpu=0.5))
    graph.add_component(_component("b", memory=5.0 + 5e-10, cpu=0.5))
    graph.add_edge(ServiceEdge("a", "b", throughput_mbps=1.0))
    environment = DistributionEnvironment(
        [CandidateDevice("pc", ResourceVector(memory=10.0, cpu=1.0))]
    )
    return graph, environment


def test_optimal_accepts_what_definition_3_4_accepts():
    graph, environment = _near_full_graph()
    heuristic = HeuristicDistributor().distribute(graph, environment)
    assert heuristic.feasible
    assert not fit_violations(graph, heuristic.assignment, environment)
    optimal = OptimalDistributor().distribute(graph, environment)
    assert optimal.feasible
    assert optimal.cost == heuristic.cost


def test_optimal_still_prunes_beyond_the_tolerance():
    graph, environment = _near_full_graph()
    graph.add_component(_component("c", memory=2e-9, cpu=0.0))
    optimal = OptimalDistributor().distribute(graph, environment)
    assert not optimal.feasible
