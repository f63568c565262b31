"""The transactional resource-reservation ledger.

The single-session configurator checks Definition 3.4 against a snapshot
of device availability and then deploys. Under concurrency that snapshot
is a race: two interleaved ``start()`` calls can both pass the fit check
against the same availability and double-book a device or a link. The
ledger closes the race with optimistic two-phase admission:

1. :meth:`ReservationLedger.environment` — an availability snapshot that
   already subtracts other transactions' *pending* holds, so planners see
   capacity that is still genuinely up for grabs;
2. :meth:`ReservationLedger.prepare` — under the ledger lock, re-validate
   the planned assignment against live availability minus pending holds
   and, if it fits, record holds for every device and link it touches
   (this is the serialization point — a plan that raced a concurrent
   commit fails here with :class:`LedgerConflictError` and can simply be
   re-planned against a fresh snapshot);
3. :meth:`ReservationLedger.commit` — convert the holds into real device
   allocations and bandwidth reservations, still under the lock, and hand
   the release tokens to the deployment;
4. :meth:`ReservationLedger.abort` / :meth:`ReservationLedger.release` —
   drop a pending transaction, or retire a committed one.

Invariant (checked by :meth:`audit`): at every instant, each device's
committed allocations fit within its capacity and each link pair's
committed reservations fit within its end-to-end capacity.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.distribution.fit import CandidateDevice, DistributionEnvironment
from repro.domain.device import Device, ResourceAllocation
from repro.domain.domain import DomainServer
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph
from repro.network.topology import BandwidthReservation
from repro.observability.tracing import get_tracer
from repro.resources.vectors import ZERO, ResourceVector
from repro.store.records import LedgerEvent, LedgerEventKind


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class LedgerConflictError(RuntimeError):
    """A transaction lost a race: the capacity it planned for is gone.

    Carries human-readable ``conflicts`` describing each violated device
    or link constraint. The caller should re-plan against a fresh
    :meth:`ReservationLedger.environment` snapshot (or degrade).
    """

    def __init__(self, message: str, conflicts: Tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.conflicts = conflicts


class TransactionState(enum.Enum):
    PENDING = "pending"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"
    RELEASED = "released"


@dataclass
class ReservationTransaction:
    """One two-phase admission attempt's holds and (later) release tokens."""

    txn_id: int
    owner: str
    state: TransactionState = TransactionState.PENDING
    device_holds: Dict[str, ResourceVector] = field(default_factory=dict)
    link_holds: Dict[Tuple[str, str], float] = field(default_factory=dict)
    allocations: List[ResourceAllocation] = field(default_factory=list)
    reservations: List[BandwidthReservation] = field(default_factory=list)


class ReservationLedger:
    """Serializes resource admission for one domain.

    All admission and release of server-managed sessions must flow through
    the ledger; its lock is the only synchronization the otherwise
    lock-free :class:`~repro.domain.device.Device` /
    :class:`~repro.network.topology.NetworkTopology` mutation needs.
    ``version`` increases on every state change, giving snapshot consumers
    (the configurator's environment cache) an O(1) staleness token.
    """

    def __init__(self, server: DomainServer) -> None:
        self.server = server
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._version = 0
        self._transactions: Dict[int, ReservationTransaction] = {}
        # Aggregated holds of PREPARED (not yet committed) transactions.
        self._pending_device: Dict[str, ResourceVector] = {}
        self._pending_link: Dict[Tuple[str, str], float] = {}
        # Optional durable audit trail (see attach_store): None = silent.
        self._store = None
        self._store_epoch = 0
        self._store_clock: Callable[[], float] = lambda: 0.0

    @property
    def version(self) -> int:
        """Change counter; equal versions imply identical ledger state."""
        return self._version

    def attach_store(
        self,
        store,
        epoch: int,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """Mirror every state transition into a durable audit trail.

        ``store`` is a :class:`~repro.store.base.RecordStore`; ``epoch``
        tags the events with the owning service's boot epoch so a
        restarted process can tell its predecessor's open holds from its
        own. Detached (the default) the ledger writes nothing — the
        in-memory fast path is byte-for-byte unchanged.
        """
        with self._lock:
            self._store = store
            self._store_epoch = epoch
            self._store_clock = clock or (lambda: 0.0)

    def _record_event(
        self,
        txn: ReservationTransaction,
        kind: str,
        with_holds: bool = False,
    ) -> None:
        """Append one audit event to the attached store (no-op detached).

        Called under the ledger lock at each transition point, so event
        order in the store matches the serialization order of the ledger.
        """
        if self._store is None:
            return
        self._store.append_ledger_event(
            LedgerEvent(
                epoch=self._store_epoch,
                txn_id=txn.txn_id,
                kind=kind,
                at_s=self._store_clock(),
                owner=txn.owner,
                device_holds=(
                    LedgerEvent.pack_devices(txn.device_holds)
                    if with_holds
                    else ()
                ),
                link_holds=(
                    LedgerEvent.pack_links(txn.link_holds)
                    if with_holds
                    else ()
                ),
            )
        )

    # -- lifecycle -----------------------------------------------------------------

    def begin(self, owner: str = "") -> ReservationTransaction:
        """Open a new transaction (cheap; holds nothing yet)."""
        with self._lock:
            txn = ReservationTransaction(next(self._ids), owner)
            self._transactions[txn.txn_id] = txn
            return txn

    def prepare(
        self,
        txn: ReservationTransaction,
        graph: ServiceGraph,
        assignment: Assignment,
    ) -> None:
        """Validate and hold the assignment's capacity, atomically.

        Raises :class:`LedgerConflictError` (leaving the transaction
        PENDING and the ledger untouched) when any device or link no
        longer has room once live allocations *and* other transactions'
        pending holds are counted.
        """
        with get_tracer().span(
            "ledger.prepare", txn=txn.txn_id, owner=txn.owner
        ) as span:
            self._prepare(txn, graph, assignment)
            span.set("devices", len(txn.device_holds))
            span.set("links", len(txn.link_holds))

    def prepare_many(
        self,
        items: Sequence[
            Tuple[ReservationTransaction, ServiceGraph, Assignment]
        ],
    ) -> List[Optional[LedgerConflictError]]:
        """Validate and hold a whole batch under ONE lock acquisition.

        Items are processed in order; each sees live availability minus the
        pending holds of everything already prepared — including earlier
        items of the same batch, so a batch can never over-book even when
        its members were all planned against the same snapshot. Returns one
        entry per item: ``None`` when the transaction is now PREPARED, or
        the :class:`LedgerConflictError` that left it PENDING (re-plan it
        against a fresh snapshot, exactly as for a single conflict).
        """
        with get_tracer().span("ledger.prepare_many", size=len(items)) as span:
            results: List[Optional[LedgerConflictError]] = []
            with self._lock:
                for txn, graph, assignment in items:
                    try:
                        self._prepare_locked(txn, graph, assignment)
                        results.append(None)
                    except LedgerConflictError as exc:
                        results.append(exc)
            span.set("prepared", sum(1 for r in results if r is None))
            span.set("conflicts", sum(1 for r in results if r is not None))
            return results

    def _prepare(
        self,
        txn: ReservationTransaction,
        graph: ServiceGraph,
        assignment: Assignment,
    ) -> None:
        with self._lock:
            self._prepare_locked(txn, graph, assignment)

    def _prepare_locked(
        self,
        txn: ReservationTransaction,
        graph: ServiceGraph,
        assignment: Assignment,
    ) -> None:
        self._require(txn, TransactionState.PENDING)
        loads = assignment.device_loads(graph)
        links = self._link_demand(assignment, graph)
        conflicts: List[str] = []
        for device_id in sorted(loads):
            load = loads[device_id]
            try:
                device = self.server.domain.device(device_id)
            except KeyError:
                conflicts.append(f"device {device_id!r} left the domain")
                continue
            if not device.online:
                conflicts.append(f"device {device_id!r} is offline")
                continue
            if not load.fits_within(self._net_available(device)):
                conflicts.append(
                    f"device {device_id!r}: load {dict(load)!r} exceeds "
                    f"effective availability"
                )
        network = self.server.network
        for pair in sorted(links):
            demand = links[pair]
            headroom = network.available_bandwidth(
                *pair
            ) - self._pending_link.get(pair, 0.0)
            if demand > headroom + 1e-9:
                conflicts.append(
                    f"link {pair[0]}<->{pair[1]}: {demand:g} Mbps exceeds "
                    f"{max(0.0, headroom):g} Mbps headroom"
                )
        if conflicts:
            raise LedgerConflictError(
                f"transaction {txn.txn_id} cannot be prepared: "
                + "; ".join(conflicts),
                tuple(conflicts),
            )
        txn.device_holds = loads
        txn.link_holds = links
        for device_id, load in loads.items():
            current = self._pending_device.get(device_id, ZERO)
            self._pending_device[device_id] = current + load
        for pair, demand in links.items():
            self._pending_link[pair] = (
                self._pending_link.get(pair, 0.0) + demand
            )
        txn.state = TransactionState.PREPARED
        self._version += 1
        self._record_event(txn, LedgerEventKind.PREPARED, with_holds=True)

    def commit(
        self, txn: ReservationTransaction
    ) -> Tuple[List[ResourceAllocation], List[BandwidthReservation]]:
        """Turn the holds into live allocations/reservations; return tokens.

        Cannot over-book: prepared holds guarantee the capacity, so the
        only failure mode is a device going offline between prepare and
        commit — the transaction is then aborted (partial acquisitions
        rolled back) and :class:`LedgerConflictError` raised.
        """
        with get_tracer().span(
            "ledger.commit", txn=txn.txn_id, owner=txn.owner
        ) as span:
            allocations, reservations = self._commit(txn)
            span.set("allocations", len(allocations))
            span.set("reservations", len(reservations))
            return allocations, reservations

    def commit_many(
        self, txns: Sequence[ReservationTransaction]
    ) -> List[object]:
        """Commit a whole batch of PREPARED transactions under ONE lock.

        Returns one entry per transaction: the ``(allocations,
        reservations)`` token pair on success, or the
        :class:`LedgerConflictError` that aborted it (a device went offline
        between prepare and commit — partial acquisitions are rolled back
        per transaction, so one member's failure never poisons its batch
        mates).
        """
        with get_tracer().span("ledger.commit_many", size=len(txns)) as span:
            results: List[object] = []
            with self._lock:
                for txn in txns:
                    try:
                        results.append(self._commit_locked(txn))
                    except LedgerConflictError as exc:
                        results.append(exc)
            span.set(
                "committed",
                sum(1 for r in results if not isinstance(r, LedgerConflictError)),
            )
            span.set(
                "conflicts",
                sum(1 for r in results if isinstance(r, LedgerConflictError)),
            )
            return results

    def _commit(
        self, txn: ReservationTransaction
    ) -> Tuple[List[ResourceAllocation], List[BandwidthReservation]]:
        with self._lock:
            return self._commit_locked(txn)

    def _commit_locked(
        self, txn: ReservationTransaction
    ) -> Tuple[List[ResourceAllocation], List[BandwidthReservation]]:
        self._require(txn, TransactionState.PREPARED)
        allocations: List[ResourceAllocation] = []
        reservations: List[BandwidthReservation] = []
        try:
            for device_id in sorted(txn.device_holds):
                device = self.server.domain.device(device_id)
                allocations.append(
                    device.allocate(
                        txn.device_holds[device_id], owner=txn.owner
                    )
                )
            for pair in sorted(txn.link_holds):
                reservations.append(
                    self.server.network.reserve(*pair, txn.link_holds[pair])
                )
        except Exception as exc:
            for reservation in reservations:
                self.server.network.release(reservation)
            for allocation in allocations:
                try:
                    device = self.server.domain.device(allocation.device_id)
                except KeyError:
                    continue
                device.release(allocation)
            self._drop_pending(txn)
            txn.state = TransactionState.ABORTED
            self._version += 1
            self._record_event(txn, LedgerEventKind.ABORTED)
            raise LedgerConflictError(
                f"transaction {txn.txn_id} failed to commit: {exc}"
            ) from exc
        self._drop_pending(txn)
        txn.allocations = allocations
        txn.reservations = reservations
        txn.state = TransactionState.COMMITTED
        self._version += 1
        self._record_event(txn, LedgerEventKind.COMMITTED, with_holds=True)
        return list(allocations), list(reservations)

    def abort(self, txn: ReservationTransaction) -> None:
        """Drop a not-yet-committed transaction (idempotent)."""
        with get_tracer().span("ledger.abort", txn=txn.txn_id):
            with self._lock:
                if txn.state is TransactionState.PREPARED:
                    self._drop_pending(txn)
                if txn.state in (TransactionState.PENDING, TransactionState.PREPARED):
                    txn.state = TransactionState.ABORTED
                    self._version += 1
                    self._record_event(txn, LedgerEventKind.ABORTED)

    def release(self, txn: ReservationTransaction) -> None:
        """Retire a committed transaction, freeing every resource it holds."""
        with get_tracer().span("ledger.release", txn=txn.txn_id):
            with self._lock:
                if txn.state is not TransactionState.COMMITTED:
                    self.abort(txn)
                    return
                for allocation in txn.allocations:
                    try:
                        device = self.server.domain.device(allocation.device_id)
                    except KeyError:
                        continue
                    device.release(allocation)
                for reservation in txn.reservations:
                    self.server.network.release(reservation)
                txn.allocations = []
                txn.reservations = []
                txn.state = TransactionState.RELEASED
                self._version += 1
                self._record_event(txn, LedgerEventKind.RELEASED)

    # -- planning snapshots --------------------------------------------------------

    def environment(
        self,
    ) -> Tuple[DistributionEnvironment, Dict[str, object]]:
        """A distribution environment net of pending holds.

        Device availability is ``available() - pending`` and the bandwidth
        callable reads the live topology minus pending link holds, so a
        planner never sees capacity another in-flight transaction has
        already spoken for.
        """
        with self._lock:
            devices = {
                d.device_id: d for d in self.server.available_devices()
            }
            pending_link = dict(self._pending_link)
            candidates = [
                CandidateDevice(device_id, self._net_available(device))
                for device_id, device in devices.items()
            ]
        topology = self.server.network

        def bandwidth(first: str, second: str) -> float:
            base = topology.available_bandwidth(first, second)
            return max(0.0, base - pending_link.get(_pair(first, second), 0.0))

        return DistributionEnvironment(candidates, bandwidth=bandwidth), devices

    def utilization(self) -> float:
        """Worst-case committed+pending fraction across devices, in [0, 1].

        The admission controller's overload signal: 1.0 means some device
        has no headroom on some resource.
        """
        with self._lock:
            worst = 0.0
            for device in self.server.available_devices():
                allocated = device.allocated
                pending = self._pending_device.get(device.device_id, ZERO)
                for name, cap in device.capacity.items():
                    if cap <= 0:
                        continue
                    used = allocated.get(name, 0.0) + pending.get(name, 0.0)
                    worst = max(worst, min(1.0, used / cap))
            return worst

    # -- invariants ---------------------------------------------------------------

    def audit(self) -> List[str]:
        """Check the no-over-booking invariant; empty list = healthy.

        Verifies, under the lock: every online device's live allocations
        fit its capacity; the summed holds of committed transactions fit
        each device's capacity; and per-pair committed bandwidth fits the
        pair's end-to-end capacity.
        """
        with self._lock:
            problems: List[str] = []
            for device in self.server.domain.devices(online_only=True):
                if not device.allocated.fits_within(device.capacity):
                    problems.append(
                        f"device {device.device_id!r} over-booked: "
                        f"{dict(device.allocated)!r} > {dict(device.capacity)!r}"
                    )
            committed: Dict[str, ResourceVector] = {}
            for txn in self._transactions.values():
                if txn.state is not TransactionState.COMMITTED:
                    continue
                for device_id, load in txn.device_holds.items():
                    current = committed.get(device_id, ZERO)
                    committed[device_id] = current + load
            for device_id, total in sorted(committed.items()):
                try:
                    device = self.server.domain.device(device_id)
                except KeyError:
                    continue
                if device.online and not total.fits_within(device.capacity):
                    problems.append(
                        f"ledger over-committed device {device_id!r}: "
                        f"{dict(total)!r} > {dict(device.capacity)!r}"
                    )
            network = self.server.network
            per_pair: Dict[Tuple[str, str], float] = {}
            for reservation in network.active_reservations():
                if reservation.first == reservation.second:
                    continue
                key = _pair(reservation.first, reservation.second)
                per_pair[key] = per_pair.get(key, 0.0) + reservation.bandwidth_mbps
            for pair, used in sorted(per_pair.items()):
                capacity = network.pair_capacity(*pair)
                if used > capacity + 1e-6:
                    problems.append(
                        f"link {pair[0]}<->{pair[1]} over-booked: "
                        f"{used:g} Mbps reserved > {capacity:g} Mbps capacity"
                    )
            return problems

    def transactions(
        self, state: Optional[TransactionState] = None
    ) -> List[ReservationTransaction]:
        """Transactions, optionally filtered by state (newest last)."""
        with self._lock:
            txns = list(self._transactions.values())
        if state is not None:
            txns = [t for t in txns if t.state is state]
        return txns

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _link_demand(
        assignment: Assignment, graph: ServiceGraph
    ) -> Dict[Tuple[str, str], float]:
        """Cut traffic aggregated per unordered pair (topology accounting)."""
        demand: Dict[Tuple[str, str], float] = {}
        for (src, dst), mbps in assignment.pairwise_throughput(graph).items():
            if src == dst or mbps <= 0:
                continue
            key = _pair(src, dst)
            demand[key] = demand.get(key, 0.0) + mbps
        return demand

    def _net_available(self, device: Device) -> ResourceVector:
        """``device.available()`` minus the device's pending holds.

        ``available()`` is already clamped at ``+0.0``, so a device
        without holds needs no ``- ZERO`` pass: it would return the same
        floats.
        """
        available = device.available()
        pending = self._pending_device.get(device.device_id)
        if pending is None:
            return available
        return available - pending

    def _drop_pending(self, txn: ReservationTransaction) -> None:
        for device_id, load in txn.device_holds.items():
            remaining = self._pending_device.get(device_id, ZERO) - load
            if remaining.is_zero():
                self._pending_device.pop(device_id, None)
            else:
                self._pending_device[device_id] = remaining
        for pair, demand in txn.link_holds.items():
            remaining = self._pending_link.get(pair, 0.0) - demand
            if remaining <= 1e-12:
                self._pending_link.pop(pair, None)
            else:
                self._pending_link[pair] = remaining

    def _require(
        self, txn: ReservationTransaction, state: TransactionState
    ) -> None:
        if self._transactions.get(txn.txn_id) is not txn:
            raise LedgerConflictError(
                f"transaction {txn.txn_id} is not known to this ledger"
            )
        if txn.state is not state:
            raise LedgerConflictError(
                f"transaction {txn.txn_id} is {txn.state.value}, "
                f"expected {state.value}"
            )
