"""Golden replay of the distribution searches.

Pins every search's exact output — placements, cost bits and the
evaluation count the modelled distribution time is derived from — on the
paper's Table 1 graph set, on three seeded scaling graphs and on the
serving graphs the audio testbed places on every request (there the rows
also pin violations, objectives, fronts and placement order). Any change
to the search kernels must leave these rows byte-identical.
"""

import hashlib
import random

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.distribution.cost import CostWeights
from repro.distribution.fit import CandidateDevice, DistributionEnvironment
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.local_search import LocalSearchDistributor
from repro.distribution.optimal import OptimalDistributor
from repro.experiments.server_sweep import audio_degradation_ladder
from repro.graph.generators import RandomGraphConfig, random_service_graph
from repro.resources.vectors import ResourceVector
from repro.runtime.degradation import scale_graph_demand
from repro.workloads.generator import Table1Workload

TABLE1_GOLDEN = "273bb455cde08ac8fd906fd0730da0152187864c7356b7ff671bfeee1cee9826"
SCALING_GOLDEN = "7fddd392e19d4dfe046df982860b685b0f73abe65ea7eae80df4e14c8c685cfa"
SERVING_GOLDEN = "37ff67ec00bd5785b656b4df383f92529a1695eef7442817e1af383efd165229"


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


#: The audio testbed's clients: three desktops (a 2-component, fully
#: pinned graph) and the PDA (OC inserts an unpinned transcoder).
SERVING_CLIENTS = ("desktop1", "desktop2", "desktop3", "jornada")


def serving_graphs():
    """Each client's composed audio graph at every ladder rung."""
    testbed = build_audio_testbed()
    composer = testbed.configurator.composer
    graphs = []
    for client in SERVING_CLIENTS:
        graph = composer.compose(audio_request(testbed, client)).graph
        for level in audio_degradation_ladder().levels:
            graphs.append(scale_graph_demand(graph, level.demand_scale))
    return graphs


def serving_environment(seed):
    """The testbed's devices, partly filled; links from scarce to missing."""
    rng = random.Random(seed)
    capacities = {
        "desktop1": (256.0, 3.0),
        "desktop2": (256.0, 3.0),
        "desktop3": (256.0, 3.0),
        "jornada": (32.0, 0.5),
    }
    devices = [
        CandidateDevice(
            device_id,
            ResourceVector(
                memory=memory * rng.choice((0.0, 0.15, 0.25, 0.5, 0.8, 1.0)),
                cpu=cpu * rng.choice((0.05, 0.1, 0.15, 0.5, 0.8, 1.0)),
            ),
        )
        for device_id, (memory, cpu) in capacities.items()
    ]
    table = {}
    ids = list(capacities)
    for index, first in enumerate(ids):
        for second in ids[index + 1 :]:
            mbps = rng.choice((None, 0.0, 0.7, 1.2, 2.0, 100.0, float("inf")))
            if mbps is not None:
                table[(first, second)] = mbps
    return DistributionEnvironment(devices, bandwidth=table)


def _serving_row(result):
    return (
        f"{result.strategy}|{result.feasible}|{result.cost!r}|"
        f"{result.evaluations}|{list(result.assignment.items())!r}|"
        f"{result.violations!r}|{result.objectives!r}|{result.front!r}"
    )


def serving_rows():
    graphs = serving_graphs()
    heuristic = HeuristicDistributor()
    local = LocalSearchDistributor(base=heuristic)
    rows = []
    for seed in range(40):
        environment = serving_environment(seed)
        for weights in (CostWeights(), CostWeights.network_only()):
            for graph in graphs:
                for strategy in (heuristic, local):
                    result = strategy.distribute(graph, environment, weights)
                    rows.append(_serving_row(result))
    return rows


def test_serving_graphs_replay_byte_identically():
    rows = serving_rows()
    assert len(rows) == 1920
    assert _digest(rows) == SERVING_GOLDEN
