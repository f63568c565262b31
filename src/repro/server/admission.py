"""Admission control: degradation under contention, shedding under load.

The controller walks a :class:`~repro.runtime.degradation.DegradationLadder`
exactly like the single-session ``DegradingConfigurator`` — try the
preferred QoS first, walk down — but with one serving-layer twist: a
failure caused by a *reservation conflict* (another request committed the
capacity between this request's plan and its prepare) is retried at the
same level against a fresh snapshot instead of being treated as genuine
infeasibility. Only when a level fails on real capacity grounds does the
walk descend.

:class:`OverloadPolicy` decides when the front end stops queueing and
sheds instead, and how long it tells the client to back off (retry-after
grows linearly with queue depth up to a configurable ceiling — simple,
deterministic backpressure).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.composition.composer import CompositionRequest
from repro.distribution.pareto import (
    ParetoFront,
    ParetoPoint,
    UtilityProfile,
    utility_profile as resolve_utility_profile,
)
from repro.observability.tracing import get_tracer
from repro.runtime.configurator import ServiceConfigurator
from repro.runtime.degradation import DegradationLadder, scale_graph_demand
from repro.runtime.session import (
    ApplicationSession,
    ConfigurationRecord,
    SessionState,
)


@dataclass
class OverloadPolicy:
    """When to shed at the front door, and what retry-after to hint.

    ``queue_high_water`` is the queue-occupancy fraction above which the
    utilization check kicks in; a saturated ledger alone does not shed
    (queued work may be about to release capacity), but a deep queue *and*
    a saturated domain together mean new work has no realistic chance.
    """

    queue_high_water: float = 0.75
    utilization_threshold: float = 0.98
    retry_after_base_s: float = 0.25
    retry_after_per_queued_s: float = 0.05
    #: Ceiling on the hinted backoff: the linear depth term would
    #: otherwise tell clients behind a deep queue to go away for minutes,
    #: long after the congestion that shed them has drained.
    retry_after_max_s: float = 5.0
    #: Forecast-aware floor, set by the QoS controller while an overload
    #: forecast is standing and cleared on revert. The linear depth term
    #: only knows about *current* congestion; a standing forecast says the
    #: congestion will persist for at least its horizon, so the hint never
    #: tells a client to come back sooner than that — even past
    #: ``retry_after_max_s``, which caps stale-depth guesses, not forecasts.
    forecast_horizon_s: Optional[float] = None

    def should_shed(
        self,
        queue_depth: int,
        queue_capacity: int,
        utilization: Callable[[], float],
    ) -> bool:
        """Shed when the queue is past high water *and* the domain is full.

        ``utilization`` is only called once occupancy has reached
        ``queue_high_water``: below the mark the answer is already "no",
        and reading ledger utilization walks every device.
        """
        if queue_capacity <= 0:
            return True
        occupancy = queue_depth / queue_capacity
        return (
            occupancy >= self.queue_high_water
            and utilization() >= self.utilization_threshold
        )

    def retry_after_s(self, queue_depth: int) -> float:
        hint = min(
            self.retry_after_base_s
            + self.retry_after_per_queued_s * queue_depth,
            self.retry_after_max_s,
        )
        if self.forecast_horizon_s is not None:
            hint = max(hint, self.forecast_horizon_s)
        return hint


@dataclass
class AdmissionResult:
    """What one request's ladder walk produced."""

    session: ApplicationSession
    admitted_level: Optional[str]
    attempts: List[ConfigurationRecord] = field(default_factory=list)
    conflict_retries: int = 0
    #: Preference-order positions skipped before the first attempt
    #: (proactive degradation by the control plane; 0 for a normal walk).
    #: Always clamped below the ladder length, so at least one level is
    #: ever attempted.
    entry_offset: int = 0
    #: Name of the utility profile that ordered the walk (None for the
    #: classic best-fidelity-first descent).
    profile: Optional[str] = None

    @property
    def success(self) -> bool:
        return self.admitted_level is not None

    @property
    def degraded(self) -> bool:
        """Admitted below the ladder's top level.

        True either because the walk descended, or because a control-plane
        entry offset made it *start* below the top (the first attempt is
        already a degraded rung, even when it succeeds immediately).
        """
        return (
            self.success
            and bool(self.attempts)
            and (
                self.entry_offset > 0
                or self.attempts[0].label != self.attempts[-1].label
            )
        )

    def service_time_s(self) -> float:
        """Summed configuration overhead across all attempts, in seconds.

        The sim driver uses this as the worker's busy time for the
        request, so a request that walked the whole ladder occupies the
        server longer than one admitted at first try.
        """
        return sum(r.timing.total_ms for r in self.attempts) / 1000.0


class FrontCache:
    """Per-domain cache of measured ladder-level objective points.

    One entry per request class — keyed on the class's abstract graph
    name/version and user QoS — holding the per-level
    :class:`~repro.distribution.pareto.ParetoPoint` list produced by
    probing every ladder level once. Each entry is stamped with the
    registry version it was measured against; a stale stamp invalidates
    the entry on lookup (the existing registry/graph version counters
    are the only invalidation signal — ledger churn does *not* evict,
    because the walk re-validates feasibility per attempt anyway). LRU
    bounded by ``max_entries``.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, Tuple[object, Tuple[Optional[ParetoPoint], ...]]]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, key: tuple, token: object
    ) -> Optional[Tuple[Optional[ParetoPoint], ...]]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        stamped, points = entry
        if stamped != token:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return points

    def put(
        self,
        key: tuple,
        token: object,
        points: Sequence[Optional[ParetoPoint]],
    ) -> None:
        self._entries[key] = (token, tuple(points))
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


class AdmissionController:
    """Serves one configuration request end-to-end through the ledger."""

    def __init__(
        self,
        configurator: ServiceConfigurator,
        ladder: Optional[DegradationLadder] = None,
        max_conflict_retries: int = 2,
        skip_downloads: bool = False,
        front_cache: bool = True,
    ) -> None:
        if max_conflict_retries < 0:
            raise ValueError("max_conflict_retries cannot be negative")
        self.configurator = configurator
        self.ladder = ladder
        self.max_conflict_retries = max_conflict_retries
        self.skip_downloads = skip_downloads
        #: Per-domain measured front cache (None when disabled): repeated
        #: profile-driven admissions of one request class reuse the
        #: probed per-level points as an O(1) lookup.
        self.front_cache: Optional[FrontCache] = (
            FrontCache() if front_cache else None
        )
        self._entry_offset = 0
        self._entry_max_priority = 0

    # -- proactive degradation (control-plane actuator) ----------------------------

    def set_entry_offset(self, offset: int, max_priority: int = 0) -> None:
        """Pre-emptively lower the ladder entry point for low-priority work.

        While set, requests with ``priority <= max_priority`` start their
        ladder walk ``offset`` rungs down instead of at the top — they can
        still be admitted, just degraded — leaving the skipped headroom
        for higher-priority classes during a forecast overload. The offset
        is clamped so at least one rung always remains. A no-op without a
        ladder. The QoS controller sets this on an overload forecast and
        calls :meth:`clear_entry_offset` when the forecast clears.
        """
        if offset < 0:
            raise ValueError("entry offset cannot be negative")
        if self.ladder is not None:
            # Clamp at set time: an over-deep offset (>= ladder length)
            # would otherwise skip every rung and hard-deny feasible
            # requests. The deepest legal entry is the last rung.
            offset = min(offset, len(self.ladder.levels) - 1)
        self._entry_offset = offset
        self._entry_max_priority = max_priority

    def clear_entry_offset(self) -> None:
        """Restore the full ladder for every priority class (idempotent)."""
        self._entry_offset = 0
        self._entry_max_priority = 0

    @property
    def entry_offset(self) -> int:
        """The currently configured offset (0 when inactive)."""
        return self._entry_offset

    def entry_offset_for(self, priority: int) -> int:
        """Where this priority class starts its walk (0 = top of ladder)."""
        if (
            self._entry_offset <= 0
            or self.ladder is None
            or priority > self._entry_max_priority
        ):
            return 0
        return min(self._entry_offset, len(self.ladder.levels) - 1)

    # -- per-class Pareto fronts ---------------------------------------------------

    def _registry_token(self) -> Optional[object]:
        """The registry content-version the front cache stamps entries with."""
        composer = getattr(self.configurator, "composer", None)
        if composer is None:
            return None
        return getattr(composer.discovery, "registry_version", None)

    @staticmethod
    def _class_key(request: CompositionRequest) -> tuple:
        """Identity of a request class, shared across its clients.

        The abstract graph's name and version plus the user QoS: clients
        of one workload class share the front (their pins shift the
        measured points only marginally, and the walk re-validates
        feasibility per request anyway).
        """
        return (
            request.abstract_graph.name,
            request.abstract_graph.version,
            request.user_qos,
        )

    def _probe_points(
        self, request: CompositionRequest
    ) -> Tuple[Optional[ParetoPoint], ...]:
        """Plan every ladder level once; score each on the four axes.

        Plans run against the current ledger-net snapshot but acquire
        nothing — each probe plan is discarded via ``fail_planned``-less
        bookkeeping (the probe session never deploys and is dropped from
        the configurator's session table afterwards). A level whose plan
        is infeasible maps to None (its prior is used for ordering).
        """
        assert self.ladder is not None
        session = self.configurator.create_session(
            request, session_id=None, user_id=None
        )
        points: List[Optional[ParetoPoint]] = []
        try:
            for index, level in enumerate(self.ladder.levels):
                probe_request = dataclasses.replace(
                    request, user_qos=level.user_qos
                )
                scale = level.demand_scale
                planned, _failure = self.configurator.plan(
                    session,
                    probe_request,
                    label=f"probe@{level.label}",
                    graph_transform=lambda g, f=scale: scale_graph_demand(g, f),
                )
                if planned is None or planned.distribution.objectives is None:
                    points.append(None)
                    continue
                points.append(
                    dataclasses.replace(
                        planned.distribution.objectives,
                        fidelity_loss=1.0 - level.demand_scale,
                        key=(f"level{index}", level.label),
                    )
                )
        finally:
            self.configurator.sessions.pop(session.session_id, None)
        return tuple(points)

    def class_points(
        self, request: CompositionRequest
    ) -> Tuple[Optional[ParetoPoint], ...]:
        """Measured per-level objective points for one request class.

        Served from the per-domain front cache when the entry's registry
        stamp is current — an O(1) lookup; probed (and cached) otherwise.
        Raises without a ladder.
        """
        if self.ladder is None:
            raise ValueError("class_points requires a degradation ladder")
        token = self._registry_token()
        key = self._class_key(request)
        if self.front_cache is not None and token is not None:
            cached = self.front_cache.get(key, token)
            if cached is not None:
                return cached
        points = self._probe_points(request)
        if self.front_cache is not None and token is not None:
            self.front_cache.put(key, token, points)
        return points

    def class_front(self, request: CompositionRequest) -> ParetoFront:
        """The request class's Pareto front over its ladder levels.

        Built from the measured per-level points (levels with infeasible
        plans are absent). Deterministically ordered; byte-identical per
        seed under the simulated drivers.
        """
        front = ParetoFront()
        for point in self.class_points(request):
            if point is not None:
                front.insert(point)
        return front

    def level_order(
        self,
        request: CompositionRequest,
        priority: int = 0,
        profile: Optional[Union[str, UtilityProfile]] = None,
    ) -> Tuple[int, ...]:
        """Ladder-level indices in walk order for one request.

        Without a profile: the classic best-first order. With one: the
        profile's utility order over the class's measured points. The
        standing entry offset (when this priority is subject to it)
        skips that many positions of the *preference* order — the
        control plane shifts the selected front point, not a raw rung.
        """
        if self.ladder is None:
            return (0,)
        if isinstance(profile, str):
            profile = resolve_utility_profile(profile)
        if profile is None:
            order = list(range(len(self.ladder.levels)))
        else:
            order = self.ladder.order_for(profile, self.class_points(request))
        offset = self.entry_offset_for(priority)
        if offset:
            order = order[offset:]
        return tuple(order)

    def admit(
        self,
        request: CompositionRequest,
        user_id: Optional[str] = None,
        session_id: Optional[str] = None,
        priority: int = 0,
        utility_profile: Optional[Union[str, UtilityProfile]] = None,
    ) -> AdmissionResult:
        """Walk the ladder (or try once, ladder-less) until admission.

        ``utility_profile`` (a name or a profile object) reorders the
        walk by the request class's utility over the measured per-level
        front; None keeps the classic best-fidelity-first descent.
        """
        session = self.configurator.create_session(
            request, user_id=user_id, session_id=session_id
        )
        with get_tracer().span(
            "admission.admit", session_id=session.session_id
        ) as span:
            result = self._walk(
                session, priority=priority, utility_profile=utility_profile
            )
            span.set("admitted", result.success)
            span.set("level", result.admitted_level or "")
            span.set("attempts", len(result.attempts))
            span.set("conflict_retries", result.conflict_retries)
            if result.profile:
                span.set("profile", result.profile)
            return result

    def _walk(
        self,
        session: ApplicationSession,
        priority: int = 0,
        utility_profile: Optional[Union[str, UtilityProfile]] = None,
    ) -> AdmissionResult:
        if isinstance(utility_profile, str):
            utility_profile = resolve_utility_profile(utility_profile)
        offset = self.entry_offset_for(priority)
        result = AdmissionResult(
            session=session,
            admitted_level=None,
            entry_offset=offset,
            profile=utility_profile.name if utility_profile else None,
        )
        if self.ladder is None:
            levels: Tuple[Optional[object], ...] = (None,)
        else:
            order = self.level_order(
                session.request, priority=priority, profile=utility_profile
            )
            levels = tuple(self.ladder.levels[i] for i in order)
        for level in levels:
            if level is not None:
                session.request = dataclasses.replace(
                    session.request, user_qos=level.user_qos
                )
                label = f"admit@{level.label}"
                scale = level.demand_scale
            else:
                label = "admit"
                scale = 1.0
            retries_left = self.max_conflict_retries
            while True:
                if session.state is SessionState.FAILED:
                    session.state = SessionState.NEW
                record = session.start(
                    label=label,
                    skip_downloads=self.skip_downloads,
                    graph_transform=lambda g, f=scale: scale_graph_demand(g, f),
                )
                result.attempts.append(record)
                if record.success:
                    result.admitted_level = label
                    return result
                if not record.conflict or retries_left <= 0:
                    break
                retries_left -= 1
                result.conflict_retries += 1
        return result
