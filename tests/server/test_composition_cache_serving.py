"""The composer's content-keyed cache on the serving path.

Every serving request brings its own abstract graph object, so these
tests build a fresh graph per request (``audio_request`` does) and check
two things: serving with the cache decides exactly what serving without
it decides, and the cache composes once per request class rather than
once per request.
"""

import random
import re

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.server.cluster import DomainCluster
from repro.server.service import DomainConfigurationService, ServerRequest

from tests.server.conftest import audio_ladder

CLIENTS = ("desktop1", "desktop2", "desktop3", "jornada")
PROFILES = (None, "fidelity_first", "battery_saver")

_ORDINAL = re.compile(r"#\d+$")


def strip_ordinal(component_id: str) -> str:
    """Drop an inserted adapter's ``#N`` ordinal.

    ``CorrectionPolicy`` numbers adapters from one counter per composer.
    With the cache, sessions of one class share the cold compose's
    ordinal; without it every compose counts up. The names differ, the
    graphs do not.
    """
    return _ORDINAL.sub("", component_id)


def graph_shape(graph) -> tuple:
    ids = [c.component_id for c in graph]
    assert len(ids) == len(set(ids)), ids
    return (
        tuple(
            (strip_ordinal(c.component_id), c.service_type, c.pinned_to)
            for c in graph
        ),
        tuple(
            (strip_ordinal(e.source), strip_ordinal(e.target), e.throughput_mbps)
            for e in graph.edges()
        ),
    )


def replay(cache_size: int, seed: int = 13, requests: int = 96):
    """Serve a seeded stream of fresh-graph requests on one shard."""
    testbed = build_audio_testbed()
    testbed.configurator.composer.cache_size = cache_size
    service = DomainConfigurationService(
        testbed.configurator, ladder=audio_ladder(), skip_downloads=True
    )
    rng = random.Random(seed)
    rows, shapes, live = [], [], []
    index = 0
    while index < requests:
        for _ in range(rng.randint(1, 8)):
            service.submit(
                ServerRequest(
                    request_id=f"r{index}",
                    composition=audio_request(testbed, rng.choice(CLIENTS)),
                    utility_profile=rng.choice(PROFILES),
                )
            )
            index += 1
        for outcome in service.drain():
            rows.append(
                (
                    outcome.request_id,
                    outcome.status.name,
                    outcome.level,
                    outcome.shed_reason,
                )
            )
            if outcome.admitted:
                shapes.append(
                    (outcome.request_id, graph_shape(outcome.session.graph))
                )
                live.append(outcome)
        while live and (len(live) > 3 or rng.random() < 0.5):
            service.stop_session(live.pop(rng.randrange(len(live))))
    return rows, shapes, testbed.configurator.composer


class TestCachedVersusUncachedServing:
    def test_same_decisions_and_session_graphs(self):
        cached_rows, cached_shapes, cached = replay(cache_size=64)
        cold_rows, cold_shapes, cold = replay(cache_size=0)
        assert cached_rows == cold_rows
        assert cached_shapes == cold_shapes
        # The stream exercises more than the happy path.
        statuses = {status for _, status, _, _ in cached_rows}
        assert {"ADMITTED", "DEGRADED"} <= statuses
        assert len(statuses) >= 3
        assert any("jornada" in str(shape) for _, shape in cached_shapes)
        assert cached.cache_hits > 0 and cold.cache_hits == cold.cache_misses == 0


class TestComposeOncePerClass:
    def test_misses_bounded_by_served_classes(self):
        """A per-request field in the key would show up here as misses."""
        testbeds = [build_audio_testbed() for _ in range(2)]
        cluster = DomainCluster.build(
            [t.configurator for t in testbeds],
            ladder=audio_ladder(),
            skip_downloads=True,
        )
        rng = random.Random(5)
        served = [set() for _ in testbeds]
        live = []
        for index in range(120):
            client = rng.choice(CLIENTS)
            placed = cluster.submit(
                ServerRequest(
                    request_id=f"r{index}",
                    composition=audio_request(testbeds[0], client),
                    user_id=f"user-{rng.randrange(40)}",
                )
            )
            served[placed.shard].add(client)
            for shard in cluster.shards:
                live.extend(o for o in shard.drain() if o.admitted)
            while len(live) > 12:
                outcome = live.pop(0)
                cluster.shards[cluster.shard_of(outcome.request_id)].stop_session(
                    outcome
                )
        rungs = len(audio_ladder().levels)
        for testbed, clients in zip(testbeds, served):
            composer = testbed.configurator.composer
            assert composer.cache_misses <= len(clients) * rungs
            assert composer.cache_hits > composer.cache_misses
