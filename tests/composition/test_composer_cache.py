"""The composer's composition cache: hits, isolation, and invalidation."""

import pytest

from repro.composition.composer import CompositionRequest, ServiceComposer
from repro.composition.corrections import CorrectionPolicy
from repro.discovery.registry import ServiceDescription, ServiceRegistry
from repro.discovery.service import DiscoveryService
from repro.graph.abstract import (
    AbstractComponentSpec,
    AbstractServiceGraph,
    PinConstraint,
)
from repro.graph.service_graph import ServiceComponent
from repro.qos.translation import Transcoding, TranscoderCatalog
from repro.qos.vectors import QoSVector
from repro.resources.vectors import ResourceVector


def template(service_type: str, **kwargs) -> ServiceComponent:
    return ServiceComponent(
        component_id=f"template/{service_type}",
        service_type=service_type,
        resources=ResourceVector(memory=8, cpu=0.1),
        **kwargs,
    )


@pytest.fixture
def registry():
    registry = ServiceRegistry()
    registry.register(
        ServiceDescription(
            service_type="media_server",
            provider_id="server#1",
            component_template=template(
                "media_server", qos_output=QoSVector(format="MPEG", frame_rate=30)
            ),
            hosted_on="serverbox",
        )
    )
    registry.register(
        ServiceDescription(
            service_type="wav_player",
            provider_id="player#1",
            component_template=template(
                "wav_player",
                qos_input=QoSVector(format="WAV", frame_rate=(10.0, 40.0)),
            ),
        )
    )
    return registry


@pytest.fixture
def composer(registry):
    catalog = TranscoderCatalog([Transcoding("MPEG", "WAV")])
    return ServiceComposer(
        DiscoveryService(registry), CorrectionPolicy(catalog=catalog)
    )


def simple_abstract(
    server_type: str = "media_server",
    player_output: QoSVector = QoSVector(),
    throughput: float = 1.5,
) -> AbstractServiceGraph:
    graph = AbstractServiceGraph(name="app")
    graph.add_spec(AbstractComponentSpec("server", server_type))
    graph.add_spec(
        AbstractComponentSpec(
            "player",
            "wav_player",
            required_output=player_output,
            pin=PinConstraint(role="client"),
        )
    )
    graph.connect("server", "player", throughput)
    return graph


class TestCacheHits:
    def test_identical_requests_hit(self, composer):
        abstract = simple_abstract()
        request = CompositionRequest(abstract, client_device_id="pda1")
        first = composer.compose(request)
        second = composer.compose(request)
        assert composer.cache_hits == 1
        assert composer.cache_misses == 1
        assert second.success == first.success
        assert [c.component_id for c in second.graph] == [
            c.component_id for c in first.graph
        ]
        # Modeled overhead stays deterministic whether or not the cache hit.
        assert second.discovery_queries == first.discovery_queries

    def test_hit_skips_discovery_work(self, composer):
        abstract = simple_abstract()
        request = CompositionRequest(abstract, client_device_id="pda1")
        composer.compose(request)
        queries_after_cold = composer.discovery.query_count
        composer.compose(request)
        assert composer.discovery.query_count == queries_after_cold

    def test_cached_results_are_isolated_copies(self, composer):
        abstract = simple_abstract()
        request = CompositionRequest(abstract, client_device_id="pda1")
        first = composer.compose(request)
        # Sessions own and mutate their graphs (e.g. degradation scaling).
        first.graph.update_component(
            template("media_server").renamed("server").with_pin("elsewhere")
        )
        second = composer.compose(request)
        assert second.graph is not first.graph
        assert second.graph.component("server").pinned_to == "serverbox"


class TestCacheInvalidation:
    def test_registry_change_invalidates(self, composer, registry):
        abstract = simple_abstract()
        request = CompositionRequest(abstract, client_device_id="pda1")
        composer.compose(request)
        registry.register(
            ServiceDescription(
                service_type="wav_player",
                provider_id="player#2",
                component_template=template(
                    "wav_player",
                    qos_input=QoSVector(format="WAV", frame_rate=(10.0, 40.0)),
                ),
            )
        )
        composer.compose(request)
        assert composer.cache_hits == 0
        assert composer.cache_misses == 2

    def test_abstract_graph_growth_invalidates(self, composer):
        abstract = simple_abstract()
        request = CompositionRequest(abstract, client_device_id="pda1")
        composer.compose(request)
        abstract.add_spec(
            AbstractComponentSpec("extra", "media_server", optional=True)
        )
        composer.compose(request)
        assert composer.cache_hits == 0
        assert composer.cache_misses == 2

    def test_different_request_parameters_miss(self, composer):
        abstract = simple_abstract()
        composer.compose(CompositionRequest(abstract, client_device_id="pda1"))
        composer.compose(CompositionRequest(abstract, client_device_id="pda2"))
        composer.compose(
            CompositionRequest(
                abstract, client_device_id="pda1", preferred_devices=("pc1",)
            )
        )
        assert composer.cache_hits == 0
        assert composer.cache_misses == 3


def summary(result, ordinals: bool = True):
    """Everything a cold and a cached composition must agree on.

    With ``ordinals=False`` inserted adapters' trailing ``#N`` (a
    per-policy counter, so it differs between two composers) is dropped.
    """
    name = (lambda cid: cid) if ordinals else (lambda cid: cid.split("#")[0])
    graph = result.graph
    return {
        "success": result.success,
        "components": [
            (name(c.component_id), c.pinned_to, c.resources) for c in graph
        ] if graph is not None else None,
        "edges": [
            (name(e.source), name(e.target), e.throughput_mbps)
            for e in graph.edges()
        ] if graph is not None else None,
        "missing": result.missing,
        "dropped": result.dropped_optional,
        "discovery_queries": result.discovery_queries,
        "oc": (
            result.oc_report.consistent,
            result.oc_report.checked_edges,
            result.oc_report.passes,
            len(result.oc_report.issues),
            len(result.oc_report.corrections),
        ),
    }


def cold_composer(registry, decompositions=None) -> ServiceComposer:
    catalog = TranscoderCatalog([Transcoding("MPEG", "WAV")])
    return ServiceComposer(
        DiscoveryService(registry),
        CorrectionPolicy(catalog=catalog),
        decompositions=decompositions,
        cache_size=0,
    )


class TestContentKey:
    """The cache keys on the abstract graph's content, not its identity."""

    def test_equal_fresh_graph_object_hits(self, composer, registry):
        composer.compose(
            CompositionRequest(simple_abstract(), client_device_id="pda1")
        )
        fresh = CompositionRequest(simple_abstract(), client_device_id="pda1")
        queries_before = composer.discovery.query_count
        result = composer.compose(fresh)
        assert composer.cache_hits == 1
        assert composer.cache_misses == 1
        assert composer.discovery.query_count == queries_before
        cold = cold_composer(registry).compose(fresh)
        assert cold.success
        assert summary(result) == summary(cold)

    @pytest.mark.parametrize(
        "variant",
        [
            dict(server_type="wav_player"),
            dict(player_output=QoSVector(frame_rate=20)),
            dict(throughput=2.5),
        ],
        ids=["service_type", "required_output", "edge_throughput"],
    )
    def test_same_shape_different_content_misses(self, composer, registry, variant):
        # Same name, same spec and edge counts: the collision a name plus
        # change-counter key would have let through.
        composer.compose(
            CompositionRequest(simple_abstract(), client_device_id="pda1")
        )
        other = CompositionRequest(
            simple_abstract(**variant), client_device_id="pda1"
        )
        result = composer.compose(other)
        assert composer.cache_hits == 0
        assert composer.cache_misses == 2
        cold = cold_composer(registry).compose(other)
        assert summary(result, ordinals=False) == summary(cold, ordinals=False)

    def test_signature_follows_insertion_order(self):
        forward = AbstractServiceGraph(name="app")
        forward.add_spec(AbstractComponentSpec("a", "media_server"))
        forward.add_spec(AbstractComponentSpec("b", "wav_player"))
        backward = AbstractServiceGraph(name="app")
        backward.add_spec(AbstractComponentSpec("b", "wav_player"))
        backward.add_spec(AbstractComponentSpec("a", "media_server"))
        assert forward.signature() == ("app", tuple(forward.specs()), ())
        assert forward.signature() != backward.signature()


class TestDecompositionInvalidation:
    def test_new_decomposition_rule_invalidates_cached_failure(self, composer, registry):
        abstract = AbstractServiceGraph(name="app")
        abstract.add_spec(AbstractComponentSpec("server", "media_server"))
        abstract.add_spec(
            AbstractComponentSpec(
                "player", "audio_player", pin=PinConstraint(role="client")
            )
        )
        abstract.connect("server", "player", 1.5)
        request = CompositionRequest(abstract, client_device_id="pda1")
        failed = composer.compose(request)
        assert not failed.success
        assert failed.missing == ["player"]

        def wav_only(spec):
            return AbstractServiceGraph(
                [AbstractComponentSpec("wav", "wav_player")], name="audio_player"
            )

        composer.decompositions.register("audio_player", wav_only)
        result = composer.compose(request)
        assert result.success
        assert composer.cache_hits == 0
        fresh = cold_composer(registry, decompositions=composer.decompositions)
        assert fresh.compose(request).success


class TestCacheControls:
    def test_cache_disabled_with_size_zero(self, registry):
        catalog = TranscoderCatalog([Transcoding("MPEG", "WAV")])
        composer = ServiceComposer(
            DiscoveryService(registry),
            CorrectionPolicy(catalog=catalog),
            cache_size=0,
        )
        request = CompositionRequest(simple_abstract(), client_device_id="pda1")
        composer.compose(request)
        composer.compose(request)
        assert composer.cache_hits == 0
        assert composer.cache_misses == 0

    def test_profiler_bypasses_cache(self, registry):
        class StubProfiler:
            def estimate(self, service_type):
                return None

        catalog = TranscoderCatalog([Transcoding("MPEG", "WAV")])
        composer = ServiceComposer(
            DiscoveryService(registry),
            CorrectionPolicy(catalog=catalog),
            profiler=StubProfiler(),
        )
        request = CompositionRequest(simple_abstract(), client_device_id="pda1")
        composer.compose(request)
        composer.compose(request)
        assert composer.cache_hits == 0
        assert composer.cache_misses == 0

    def test_lru_evicts_oldest(self, registry):
        catalog = TranscoderCatalog([Transcoding("MPEG", "WAV")])
        composer = ServiceComposer(
            DiscoveryService(registry),
            CorrectionPolicy(catalog=catalog),
            cache_size=1,
        )
        abstract = simple_abstract()
        request_a = CompositionRequest(abstract, client_device_id="pda1")
        request_b = CompositionRequest(abstract, client_device_id="pda2")
        composer.compose(request_a)
        composer.compose(request_b)  # evicts request_a's entry
        composer.compose(request_a)
        assert composer.cache_hits == 0
        assert composer.cache_misses == 3

    def test_negative_cache_size_rejected(self, registry):
        with pytest.raises(ValueError):
            ServiceComposer(DiscoveryService(registry), cache_size=-1)
