"""Golden replay of the distribution searches.

Pins every search's exact output — placements, cost bits and the
evaluation count the modelled distribution time is derived from — on the
paper's Table 1 graph set and on three seeded scaling graphs. Any change
to the search kernels must leave these rows byte-identical.
"""

import hashlib
import random

from repro.distribution.cost import CostWeights
from repro.distribution.fit import CandidateDevice, DistributionEnvironment
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.local_search import LocalSearchDistributor
from repro.distribution.optimal import OptimalDistributor
from repro.graph.generators import RandomGraphConfig, random_service_graph
from repro.resources.vectors import ResourceVector
from repro.workloads.generator import Table1Workload

TABLE1_GOLDEN = "273bb455cde08ac8fd906fd0730da0152187864c7356b7ff671bfeee1cee9826"
SCALING_GOLDEN = "7fddd392e19d4dfe046df982860b685b0f73abe65ea7eae80df4e14c8c685cfa"


def _row(result):
    placements = sorted(result.assignment.items()) if result.assignment else []
    return (
        f"{result.strategy}|{result.feasible}|{result.cost!r}|"
        f"{result.evaluations}|{placements!r}"
    )


def _digest(rows):
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def scaling_environment(devices=8):
    """Identical desktops, fully meshed at 100 Mbps."""
    ids = [f"dev{i}" for i in range(devices)]
    return DistributionEnvironment(
        [CandidateDevice(d, ResourceVector(memory=200.0, cpu=2.0)) for d in ids],
        bandwidth={
            (first, second): 100.0
            for index, first in enumerate(ids)
            for second in ids[index + 1 :]
        },
    )


def scaling_graph(seed, nodes):
    return random_service_graph(
        random.Random(seed),
        RandomGraphConfig(
            node_count=(nodes, nodes),
            out_degree=(3, 6),
            memory_mb=(0.1, 1.0),
            cpu_fraction=(0.001, 0.01),
        ),
        name=f"scaling-{nodes}",
    )


def table1_rows():
    heuristic = HeuristicDistributor()
    optimal = OptimalDistributor()
    rows = []
    for case in Table1Workload(seed=2002).cases():
        for strategy in (heuristic, optimal):
            result = strategy.distribute(case.graph, case.environment, case.weights)
            rows.append(_row(result))
    return rows


def scaling_rows():
    environment = scaling_environment()
    weights = CostWeights()
    heuristic = HeuristicDistributor()
    local = LocalSearchDistributor(base=heuristic, max_rounds=2, use_swaps=False)
    rows = []
    for seed, nodes in ((25, 25), (50, 50), (100, 100)):
        graph = scaling_graph(seed, nodes)
        for strategy in (heuristic, local):
            rows.append(_row(strategy.distribute(graph, environment, weights)))
    return rows


def test_table1_set_replays_byte_identically():
    rows = table1_rows()
    assert len(rows) == 300
    assert _digest(rows) == TABLE1_GOLDEN


def test_scaling_graphs_replay_byte_identically():
    rows = scaling_rows()
    assert len(rows) == 6
    assert _digest(rows) == SCALING_GOLDEN
