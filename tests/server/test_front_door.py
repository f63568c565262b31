"""The front door reads ledger utilization only past the high-water mark.

``OverloadPolicy.should_shed`` takes utilization as a zero-argument
callable and calls it only once queue occupancy has reached
``queue_high_water``; below the mark the shed answer is already "no" and
the device walk behind ``ReservationLedger.utilization`` is skipped.
"""

import pytest

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.server.admission import OverloadPolicy
from repro.server.drivers import SimulatedServerDriver
from repro.server.service import (
    DomainConfigurationService,
    RequestStatus,
    ServerRequest,
)
from repro.sim.kernel import Simulator
from repro.workloads.arrivals import arrival_trace

from tests.server.conftest import audio_ladder


class CountingUtilization:
    """Instance-level wrapper around ``ledger.utilization`` that counts calls."""

    def __init__(self, ledger, value=None) -> None:
        self.calls = 0
        self._read = ledger.utilization
        self._value = value
        ledger.utilization = self

    def __call__(self) -> float:
        self.calls += 1
        return self._read() if self._value is None else self._value


class EagerOverloadPolicy(OverloadPolicy):
    """The front door as it was: utilization read on every submit."""

    def should_shed(self, queue_depth, queue_capacity, utilization):
        value = utilization()
        return super().should_shed(queue_depth, queue_capacity, lambda: value)


def make_service(testbed, **kwargs):
    return DomainConfigurationService(
        testbed.configurator, ladder=audio_ladder(), skip_downloads=True, **kwargs
    )


def request(testbed, rid):
    return ServerRequest(request_id=rid, composition=audio_request(testbed, "desktop1"))


class TestHighWaterBoundary:
    @pytest.mark.parametrize(
        "high_water, capacity, depth",
        [
            (0.7, 10, 7),
            # 0.28 * 25 == 7.000000000000001: a rewrite as
            # ``depth >= high_water * capacity`` would skip this check.
            (0.28, 25, 7),
        ],
    )
    def test_a_submit_at_the_mark_reads_utilization(self, high_water, capacity, depth):
        testbed = build_audio_testbed()
        service = make_service(
            testbed,
            queue_capacity=capacity,
            overload=OverloadPolicy(queue_high_water=high_water),
        )
        for index in range(depth):
            queued = service.submit(request(testbed, f"fill-{index}"))
            assert queued.status is RequestStatus.QUEUED
        counter = CountingUtilization(service.ledger, value=1.0)
        shed = service.submit(request(testbed, "at-mark"))
        assert counter.calls == 1
        assert shed.status is RequestStatus.SHED
        assert shed.shed_reason == "overload"

    def test_the_mark_is_compared_as_a_fraction(self):
        assert not 7 >= 0.28 * 25
        assert OverloadPolicy(queue_high_water=0.28).should_shed(7, 25, lambda: 1.0)

    def test_below_the_mark_utilization_is_never_read(self):
        testbed = build_audio_testbed()
        service = make_service(
            testbed,
            queue_capacity=10,
            overload=OverloadPolicy(queue_high_water=0.7),
        )
        counter = CountingUtilization(service.ledger, value=1.0)
        for index in range(7):  # depths 0..6 at decision time
            queued = service.submit(request(testbed, f"r{index}"))
            assert queued.status is RequestStatus.QUEUED
        assert counter.calls == 0
        assert service.queue.depth == 7

    def test_zero_capacity_sheds_without_reading_utilization(self):
        calls = []
        policy = OverloadPolicy()
        assert policy.should_shed(0, 0, lambda: calls.append(1) or 0.0)
        assert calls == []


def replay(policy: OverloadPolicy, seed: int = 11):
    """One overloaded single-worker sim replay; returns decisions and reads."""
    testbed = build_audio_testbed()
    simulator = Simulator()
    service = make_service(
        testbed,
        queue_capacity=6,
        overload=policy,
        clock=SimulatedServerDriver.clock(simulator),
    )
    counter = CountingUtilization(service.ledger)
    driver = SimulatedServerDriver(service, simulator, workers=1, min_service_s=1.5)
    trace = arrival_trace(
        seed=seed, rate_per_s=1.5, horizon_s=150.0, mean_duration_s=40.0,
        duration_bounds_s=(5.0, 120.0),
    )
    driver.schedule_trace(
        trace,
        lambda event: ServerRequest(
            request_id=f"req-{event.request_id}",
            composition=audio_request(
                testbed, ("desktop1", "desktop2", "desktop3")[event.request_id % 3]
            ),
            duration_s=event.duration_s,
        ),
    )
    driver.run()
    assert service.ledger.audit() == []
    decisions = sorted(
        (o.request_id, o.status.value, o.level, o.shed_reason, o.retry_after_s)
        for o in driver.outcomes
    )
    return decisions, service.metrics.to_json(), counter.calls


class TestShedDecisionsUnchanged:
    def test_lazy_check_sheds_exactly_like_the_eager_one(self):
        knobs = dict(queue_high_water=0.5, utilization_threshold=0.6)
        lazy, lazy_json, lazy_reads = replay(OverloadPolicy(**knobs))
        eager, eager_json, eager_reads = replay(EagerOverloadPolicy(**knobs))
        assert lazy == eager
        assert lazy_json == eager_json
        assert "overload" in {row[3] for row in lazy}
        # Every submit read utilization before; now only those at the mark do.
        submits = len(lazy)
        assert eager_reads == submits
        assert 0 < lazy_reads < eager_reads
