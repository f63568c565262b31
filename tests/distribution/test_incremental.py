"""Equivalence of the delta evaluator with the full reference evaluation.

The incremental layer is only admissible if it is *provably equivalent*:
every delta-scored move must agree with a from-scratch ``cost_aggregation``
plus ``fit_violations`` evaluation of the moved-to assignment. These are
property-style tests sweeping randomized graphs, environments and moves.
"""

import random

import pytest

from repro.distribution.cost import CostWeights, cost_aggregation
from repro.distribution.fit import (
    CandidateDevice,
    DistributionEnvironment,
    fit_violations,
)
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.incremental import DeltaEvaluator
from repro.distribution.local_search import LocalSearchDistributor
from repro.graph.cuts import Assignment
from repro.graph.generators import RandomGraphConfig, random_service_graph
from repro.resources.vectors import ResourceVector

TOLERANCE = 1e-9


def _random_environment(rng, device_count=4, bandwidth_mbps=(5.0, 80.0)):
    devices = [
        CandidateDevice(
            f"d{i}",
            ResourceVector(
                memory=rng.uniform(120.0, 400.0), cpu=rng.uniform(1.0, 4.0)
            ),
        )
        for i in range(device_count)
    ]
    table = {}
    for i in range(device_count):
        for j in range(i + 1, device_count):
            table[(f"d{i}", f"d{j}")] = rng.uniform(*bandwidth_mbps)
    return DistributionEnvironment(devices, bandwidth=table)


def _random_instance(seed):
    rng = random.Random(seed)
    graph = random_service_graph(
        rng, RandomGraphConfig(node_count=(8, 16)), name=f"inc{seed}"
    )
    environment = _random_environment(rng)
    result = HeuristicDistributor().distribute(graph, environment)
    return rng, graph, environment, result


def _assert_move_equivalent(evaluator, graph, environment, weights, moves):
    previewed = evaluator.preview(moves)
    merged = dict(evaluator.placements)
    merged.update(moves)
    assignment = Assignment(merged)
    full_cost = cost_aggregation(graph, assignment, environment, weights)
    violations = fit_violations(graph, assignment, environment)
    if previewed is None:
        # The delta path may only reject moves the reference also rejects.
        assert violations or full_cost == float("inf")
    else:
        assert not violations
        assert previewed == pytest.approx(full_cost, abs=TOLERANCE, rel=TOLERANCE)


class TestDeltaEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_initial_cost_matches_full_evaluation(self, seed):
        _rng, graph, environment, result = _random_instance(seed)
        if not result.feasible:
            pytest.skip("heuristic found no feasible seed for this instance")
        evaluator = DeltaEvaluator(
            graph, environment, CostWeights(), placements=dict(result.assignment)
        )
        full = cost_aggregation(graph, result.assignment, environment, CostWeights())
        assert evaluator.cost == pytest.approx(full, abs=TOLERANCE, rel=TOLERANCE)
        assert not evaluator.has_violations()

    @pytest.mark.parametrize("seed", range(12))
    def test_random_relocations_match_full_evaluation(self, seed):
        rng, graph, environment, result = _random_instance(seed)
        if not result.feasible:
            pytest.skip("heuristic found no feasible seed for this instance")
        weights = CostWeights()
        evaluator = DeltaEvaluator(
            graph, environment, weights, placements=dict(result.assignment)
        )
        components = graph.component_ids()
        devices = environment.device_ids()
        for _ in range(60):
            moves = {rng.choice(components): rng.choice(devices)}
            _assert_move_equivalent(evaluator, graph, environment, weights, moves)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_swaps_match_full_evaluation(self, seed):
        rng, graph, environment, result = _random_instance(seed)
        if not result.feasible:
            pytest.skip("heuristic found no feasible seed for this instance")
        weights = CostWeights()
        evaluator = DeltaEvaluator(
            graph, environment, weights, placements=dict(result.assignment)
        )
        components = graph.component_ids()
        for _ in range(60):
            first, second = rng.sample(components, 2)
            moves = {
                first: evaluator.placements[second],
                second: evaluator.placements[first],
            }
            _assert_move_equivalent(evaluator, graph, environment, weights, moves)

    @pytest.mark.parametrize("seed", range(8))
    def test_commits_keep_tracking_exact(self, seed):
        """After a chain of commits the tracked cost still matches a cold sum."""
        rng, graph, environment, result = _random_instance(seed)
        if not result.feasible:
            pytest.skip("heuristic found no feasible seed for this instance")
        weights = CostWeights()
        evaluator = DeltaEvaluator(
            graph, environment, weights, placements=dict(result.assignment)
        )
        components = graph.component_ids()
        devices = environment.device_ids()
        committed = 0
        for _ in range(80):
            moves = {rng.choice(components): rng.choice(devices)}
            if evaluator.preview(moves) is not None:
                evaluator.commit(moves)
                committed += 1
        full = cost_aggregation(
            graph, evaluator.assignment(), environment, weights
        )
        assert evaluator.cost == pytest.approx(full, abs=TOLERANCE, rel=TOLERANCE)
        assert not fit_violations(graph, evaluator.assignment(), environment)
        assert committed > 0

    def test_network_only_weights(self):
        rng, graph, environment, result = _random_instance(99)
        if not result.feasible:
            pytest.skip("heuristic found no feasible seed for this instance")
        weights = CostWeights.network_only()
        evaluator = DeltaEvaluator(
            graph, environment, weights, placements=dict(result.assignment)
        )
        components = graph.component_ids()
        devices = environment.device_ids()
        for _ in range(40):
            moves = {rng.choice(components): rng.choice(devices)}
            _assert_move_equivalent(evaluator, graph, environment, weights, moves)

    def test_unknown_device_placement_is_rejected(self, two_device_env):
        from tests.conftest import chain_graph

        graph = chain_graph("a", "b")
        with pytest.raises(ValueError, match="unknown device"):
            DeltaEvaluator(
                graph,
                two_device_env,
                placements={"a": "big", "b": "not-a-device"},
            )
        evaluator = DeltaEvaluator(
            graph, two_device_env, placements={"a": "big", "b": "big"}
        )
        assert evaluator.preview({"a": "not-a-device"}) is None


class TestVerifyMode:
    @pytest.mark.parametrize("seed", range(6))
    def test_local_search_self_checks_under_verify(self, seed):
        """verify=True cross-checks every preview against the full path."""
        _rng, graph, environment, _result = _random_instance(seed)
        plain = LocalSearchDistributor().distribute(graph, environment)
        checked = LocalSearchDistributor(verify=True).distribute(graph, environment)
        assert checked.feasible == plain.feasible
        if plain.assignment is not None:
            assert checked.assignment == plain.assignment
        assert checked.cost == pytest.approx(plain.cost, abs=TOLERANCE, rel=TOLERANCE)

    def test_verify_raises_on_corrupted_state(self, two_device_env):
        from tests.conftest import chain_graph

        graph = chain_graph("a", "b")
        evaluator = DeltaEvaluator(
            graph,
            two_device_env,
            placements={"a": "big", "b": "big"},
            verify=True,
        )
        # Sabotage the tracked cost; the next numeric preview must detect it.
        evaluator._cost += 1.0
        with pytest.raises(AssertionError):
            evaluator.preview({"b": "small"})


class TestLocalSearchResults:
    @pytest.mark.parametrize("seed", range(10))
    def test_refined_results_match_reference_implementation(self, seed):
        """The delta-driven search replays the old full-evaluation search.

        Reference: re-score every candidate with cost_aggregation +
        fit_violations exactly as the pre-incremental implementation did,
        and check the evaluator-driven distributor lands on the same
        assignment.
        """
        _rng, graph, environment, seeded = _random_instance(seed)
        if not seeded.feasible:
            pytest.skip("heuristic found no feasible seed for this instance")
        result = LocalSearchDistributor(max_rounds=3).distribute(graph, environment)
        reference = _reference_local_search(graph, environment, seeded, max_rounds=3)
        assert dict(result.assignment) == reference
        assert result.feasible


def _reference_local_search(graph, environment, seed_result, max_rounds):
    """The pre-incremental local search: full re-evaluation per candidate."""
    weights = CostWeights()

    def evaluate(placements):
        assignment = Assignment(placements)
        if fit_violations(graph, assignment, environment):
            return None
        return cost_aggregation(graph, assignment, environment, weights)

    placements = dict(seed_result.assignment)
    cost = cost_aggregation(
        graph, seed_result.assignment, environment, weights
    )
    devices = environment.device_ids()
    movable = [c.component_id for c in graph if c.pinned_to is None]
    for _round in range(max_rounds):
        improved = False
        for component_id in movable:
            original = placements[component_id]
            best_device, best_cost = None, cost
            for device_id in devices:
                if device_id == original:
                    continue
                placements[component_id] = device_id
                candidate = evaluate(placements)
                if candidate is not None and candidate < best_cost - 1e-12:
                    best_cost, best_device = candidate, device_id
            placements[component_id] = original
            if best_device is not None:
                placements[component_id] = best_device
                cost = best_cost
                improved = True
        best_pair, best_cost = None, cost
        for i, first in enumerate(movable):
            for second in movable[i + 1 :]:
                if placements[first] == placements[second]:
                    continue
                placements[first], placements[second] = (
                    placements[second],
                    placements[first],
                )
                candidate = evaluate(placements)
                placements[first], placements[second] = (
                    placements[second],
                    placements[first],
                )
                if candidate is not None and candidate < best_cost - 1e-12:
                    best_cost, best_pair = candidate, (first, second)
        if best_pair is not None:
            first, second = best_pair
            placements[first], placements[second] = (
                placements[second],
                placements[first],
            )
            cost = best_cost
            improved = True
        if not improved:
            break
    return placements
