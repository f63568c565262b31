"""Unit tests for the ServiceDistributor facade."""

import random

import pytest

from repro.distribution.cost import CostWeights
from repro.distribution.distributor import (
    DistributionResult,
    ServiceDistributor,
    validate_pins,
)
from repro.distribution.baselines import FixedDistributor, RandomDistributor
from repro.distribution.fit import (
    CandidateDevice,
    DistributionEnvironment,
    FitViolation,
)
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.local_search import LocalSearchDistributor
from repro.distribution.optimal import OptimalDistributor
from repro.domain.device import Device
from repro.graph.cuts import Assignment
from repro.network.links import LinkClass
from repro.network.topology import NetworkTopology
from repro.resources.vectors import ResourceVector
from tests.conftest import chain_graph


class TestResultInvariants:
    def test_feasible_result_requires_assignment(self):
        with pytest.raises(ValueError):
            DistributionResult(
                strategy="x", assignment=None, feasible=True, cost=1.0
            )


class TestValidatePins:
    def test_unknown_pin_rejected(self, two_device_env):
        graph = chain_graph("a")
        graph.update_component(graph.component("a").with_pin("ghost"))
        with pytest.raises(ValueError):
            validate_pins(graph, two_device_env)

    def test_known_pin_passes(self, two_device_env):
        graph = chain_graph("a")
        graph.update_component(graph.component("a").with_pin("big"))
        validate_pins(graph, two_device_env)


@pytest.mark.parametrize(
    "strategy",
    [
        HeuristicDistributor(),
        LocalSearchDistributor(),
        LocalSearchDistributor(base=OptimalDistributor()),
        OptimalDistributor(),
        RandomDistributor(rng=random.Random(0), attempts=3),
        FixedDistributor(),
    ],
    ids=["heuristic", "local-search", "local-search-optimal", "optimal", "random", "fixed"],
)
def test_strategy_reports_a_pin_to_an_unknown_device(strategy, two_device_env):
    """Called directly (no ``validate_pins``), a strategy answers infeasible."""
    graph = chain_graph("a", "b")
    graph.update_component(graph.component("b").with_pin("ghost"))
    result = strategy.distribute(graph, two_device_env, CostWeights())
    assert not result.feasible
    assert result.cost == float("inf")
    assert result.violations == (
        FitViolation("placement", "b", "unknown device ghost"),
    )
    assert result.objectives is None and result.front == ()


class TestFacade:
    def test_distribute_validates_graph(self, two_device_env):
        from repro.graph.service_graph import ServiceGraph

        distributor = ServiceDistributor(HeuristicDistributor())
        with pytest.raises(Exception):
            distributor.distribute(ServiceGraph(), two_device_env)

    def test_distribute_on_environment(self, two_device_env):
        distributor = ServiceDistributor(HeuristicDistributor(), CostWeights())
        result = distributor.distribute(chain_graph("a", "b"), two_device_env)
        assert result.feasible

    def test_distribute_on_live_devices(self):
        device_a = Device("d1", capacity=ResourceVector(memory=100.0, cpu=1.0))
        device_b = Device("d2", capacity=ResourceVector(memory=100.0, cpu=1.0))
        distributor = ServiceDistributor(HeuristicDistributor())
        result = distributor.distribute_on_devices(
            chain_graph("a", "b"), [device_a, device_b]
        )
        assert result.feasible

    def test_live_devices_reflect_current_availability(self):
        device = Device("d1", capacity=ResourceVector(memory=15.0, cpu=1.0))
        device.allocate(ResourceVector(memory=10.0))
        distributor = ServiceDistributor(HeuristicDistributor())
        # Two 10MB components no longer fit the remaining 5MB.
        result = distributor.distribute_on_devices(chain_graph("a", "b"), [device])
        assert not result.feasible

    def test_with_topology_bandwidth(self):
        topology = NetworkTopology()
        topology.connect("d1", "d2", LinkClass.WLAN)  # 5 Mbps
        device_a = Device("d1", capacity=ResourceVector(memory=12.0, cpu=1.0))
        device_b = Device("d2", capacity=ResourceVector(memory=12.0, cpu=1.0))
        graph = chain_graph("a", "b", throughput=50.0)  # must colocate, cannot
        distributor = ServiceDistributor(HeuristicDistributor())
        result = distributor.distribute_on_devices(
            graph, [device_a, device_b], topology=topology
        )
        assert not result.feasible

    def test_accepts_candidate_devices_directly(self, two_device_env):
        distributor = ServiceDistributor(HeuristicDistributor())
        result = distributor.distribute_on_devices(
            chain_graph("a"),
            [CandidateDevice("solo", ResourceVector(memory=100.0, cpu=1.0))],
        )
        assert result.feasible
