"""Record types persisted by the durable store.

Two append-mostly families cover everything a restarted domain service
needs to rebuild its world:

- :class:`SessionRecord` — one row per *admitted* session: who asked,
  which scenario workload it came from, which ladder level it got, and
  which reservation-ledger transaction holds its capacity. Status moves
  ``active`` → ``released`` on a clean stop, or → ``unrecoverable`` when
  a post-crash recovery pass could not re-admit it.
- :class:`LedgerEvent` — the reservation ledger's audit history: every
  prepare/commit/abort/release transition with the holds it covered.
  ``reconciled`` events are written by the recovery pass to balance
  transactions whose releasing service died before releasing them.

Both carry an ``epoch`` — a monotonically increasing service-boot counter
assigned by :meth:`~repro.store.base.RecordStore.open_epoch` — so a
restarted service can tell its own sessions from a dead predecessor's.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple


class SessionStatus:
    """Well-known session record statuses."""

    ACTIVE = "active"
    RELEASED = "released"
    UNRECOVERABLE = "unrecoverable"


class LedgerEventKind:
    """Well-known ledger audit event kinds."""

    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"
    RELEASED = "released"
    #: Written by the crash-recovery pass: the transaction's owner died
    #: before releasing, and the successor epoch has re-admitted (or torn
    #: down) the session, so the old holds are accounted for.
    RECONCILED = "reconciled"

    #: Kinds that open a committed hold; balance = these minus closers.
    OPENERS = (COMMITTED,)
    #: Kinds that close a committed hold.
    CLOSERS = (RELEASED, RECONCILED)


@dataclass(frozen=True)
class SessionRecord:
    """One admitted session's durable identity and disposition."""

    session_id: str
    request_id: str
    epoch: int
    user_id: Optional[str] = None
    scenario: Optional[str] = None
    workload: Optional[str] = None
    client_device: Optional[str] = None
    level: Optional[str] = None
    priority: int = 0
    status: str = SessionStatus.ACTIVE
    txn_id: Optional[int] = None
    created_s: float = 0.0
    updated_s: float = 0.0
    #: Epoch the session originally ran in, when this record was
    #: re-adopted by a successor service after a crash (None otherwise).
    readopted_from: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.session_id:
            raise ValueError("session_id must be non-empty")
        if self.epoch < 0:
            raise ValueError("epoch cannot be negative")

    @property
    def active(self) -> bool:
        return self.status == SessionStatus.ACTIVE

    def with_status(self, status: str, at_s: float) -> "SessionRecord":
        return replace(self, status=status, updated_s=at_s)

    def to_dict(self) -> Dict[str, object]:
        return {
            "session_id": self.session_id,
            "request_id": self.request_id,
            "epoch": self.epoch,
            "user_id": self.user_id,
            "scenario": self.scenario,
            "workload": self.workload,
            "client_device": self.client_device,
            "level": self.level,
            "priority": self.priority,
            "status": self.status,
            "txn_id": self.txn_id,
            "created_s": round(self.created_s, 6),
            "updated_s": round(self.updated_s, 6),
            "readopted_from": self.readopted_from,
        }


@dataclass(frozen=True)
class LedgerEvent:
    """One reservation-ledger state transition, with the holds it covers.

    ``device_holds`` maps device id → ``{resource: amount}``;
    ``link_holds`` maps ``"a<->b"`` (endpoints sorted) → Mbps. ``seq`` is
    assigned by the store on append (0 until then) and totally orders the
    history within a store.
    """

    epoch: int
    txn_id: int
    kind: str
    at_s: float
    owner: str = ""
    device_holds: Tuple[Tuple[str, Tuple[Tuple[str, float], ...]], ...] = ()
    link_holds: Tuple[Tuple[str, float], ...] = ()
    note: str = ""
    seq: int = 0

    @staticmethod
    def pack_devices(
        holds: Dict[str, Mapping[str, float]]
    ) -> Tuple[Tuple[str, Tuple[Tuple[str, float], ...]], ...]:
        """Canonical tuple form of a ``{device: ResourceVector}`` mapping."""
        packed = []
        for device_id in sorted(holds):
            vector = holds[device_id]
            items = tuple(sorted((str(k), float(v)) for k, v in vector.items()))
            packed.append((device_id, items))
        return tuple(packed)

    @staticmethod
    def pack_links(holds: Dict[Tuple[str, str], float]) -> Tuple[Tuple[str, float], ...]:
        """Canonical tuple form of a ``{(a, b): mbps}`` mapping."""
        return tuple(
            (f"{pair[0]}<->{pair[1]}", float(mbps))
            for pair, mbps in sorted(holds.items())
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq": self.seq,
            "epoch": self.epoch,
            "txn_id": self.txn_id,
            "kind": self.kind,
            "at_s": round(self.at_s, 6),
            "owner": self.owner,
            "device_holds": {
                device: dict(items) for device, items in self.device_holds
            },
            "link_holds": dict(self.link_holds),
            "note": self.note,
        }


# Re-exported for dataclasses.field users; keeps the module import-light.
__all__ = [
    "LedgerEvent",
    "LedgerEventKind",
    "SessionRecord",
    "SessionStatus",
    "field",
]
