"""Resource vectors (Definitions 3.1 and 3.2).

A :class:`ResourceVector` is an immutable named vector of non-negative
resource amounts. The paper's examples use memory (MB) and CPU (percent of a
benchmark machine); the implementation is generic over resource names so
applications can add bandwidth-like or device-specific resources.

Vector addition follows Definition 3.1 and ``fits_within`` follows
Definition 3.2 (component-wise ``<=``). Two vectors are only combined when
they "represent the same set of resources" — missing names are treated as
zero on the requirement side but raise on the availability side, which
catches mismatched resource models early.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Union

MEMORY = "memory"
CPU = "cpu"

Number = Union[int, float]


class ResourceVector(Mapping[str, float]):
    """An immutable mapping from resource name to a non-negative amount.

    Supports ``+`` / ``-`` (component-wise over the union of names),
    scalar ``*``, and :meth:`fits_within` for Definition 3.2::

        R = ResourceVector(memory=64, cpu=0.4)
        RA = ResourceVector(memory=256, cpu=3.0)
        assert R.fits_within(RA)
    """

    __slots__ = ("_amounts",)

    def __init__(
        self,
        amounts: Optional[Mapping[str, Number]] = None,
        **kwargs: Number,
    ) -> None:
        merged: Dict[str, float] = {}
        for source in (amounts or {}), kwargs:
            for name, raw in source.items():
                value = float(raw)
                if value < 0:
                    raise ValueError(
                        f"resource amounts must be non-negative, got {name}={raw}"
                    )
                merged[name] = value
        self._amounts: Dict[str, float] = merged

    @classmethod
    def _trusted(cls, amounts: Dict[str, float]) -> "ResourceVector":
        """Wrap ``amounts`` without copying or re-validating it.

        Only for dicts the caller has just built from validated vectors
        by operations that cannot produce a negative float: the sum of two
        non-negative amounts, ``max(0.0, a - b)`` or a product with a
        non-negative factor. The vector takes ownership of the dict.
        """
        vector = cls.__new__(cls)
        vector._amounts = amounts
        return vector

    # -- Mapping interface -------------------------------------------------
    #
    # ``get``/``items``/``keys``/``values``/``in`` delegate to the internal
    # dict: the ``Mapping`` mixins would route every lookup through
    # ``__getitem__`` and a caught ``KeyError``.

    def __getitem__(self, name: str) -> float:
        return self._amounts[name]

    def __contains__(self, name: object) -> bool:
        return name in self._amounts

    def get(self, name: str, default=None):
        return self._amounts.get(name, default)

    def keys(self):
        return self._amounts.keys()

    def items(self):
        return self._amounts.items()

    def values(self):
        return self._amounts.values()

    def __iter__(self) -> Iterator[str]:
        return iter(self._amounts)

    def __len__(self) -> int:
        return len(self._amounts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return self._as_comparable() == other._as_comparable()

    def __hash__(self) -> int:
        return hash(frozenset(self._as_comparable().items()))

    def _as_comparable(self) -> Dict[str, float]:
        """Zero entries are insignificant for equality and hashing."""
        return {k: v for k, v in self._amounts.items() if v != 0.0}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._amounts.items()))
        return f"ResourceVector({inner})"

    # -- arithmetic (Definition 3.1) ----------------------------------------

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        mine = self._amounts
        theirs = other._amounts
        total = {n: a + theirs.get(n, 0.0) for n, a in mine.items()}
        for n, b in theirs.items():
            if n not in total:
                total[n] = 0.0 + b
        return ResourceVector._trusted(total)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Component-wise difference, clamped at zero.

        Used by monitors to track remaining availability after placement;
        clamping (rather than raising) mirrors a device reporting an
        exhausted resource as "none left".
        """
        if not isinstance(other, ResourceVector):
            return NotImplemented
        mine = self._amounts
        theirs = other._amounts
        rest = {n: max(0.0, a - theirs.get(n, 0.0)) for n, a in mine.items()}
        for n, b in theirs.items():
            if n not in rest:
                rest[n] = max(0.0, 0.0 - b)
        return ResourceVector._trusted(rest)

    def __mul__(self, factor: Number) -> "ResourceVector":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        if factor < 0:
            raise ValueError("cannot scale a resource vector by a negative factor")
        return ResourceVector._trusted(
            {n: float(v * factor) for n, v in self._amounts.items()}
        )

    __rmul__ = __mul__

    # -- comparison (Definition 3.2) -----------------------------------------

    def fits_within(self, availability: "ResourceVector") -> bool:
        """Definition 3.2: ``R <= RA`` component-wise.

        Every non-zero requirement must have a matching resource on the
        availability side with at least that amount. Resources the
        availability names but the requirement omits are treated as zero
        requirements.
        """
        if isinstance(availability, ResourceVector):
            availability = availability._amounts
        for name, required in self._amounts.items():
            if required > 0 and required > availability.get(name, 0.0):
                return False
        return True

    def dominates(self, other: "ResourceVector") -> bool:
        """True when every component of ``self`` is >= the one in ``other``."""
        return other.fits_within(self)

    # -- helpers -------------------------------------------------------------

    def scaled(self, factors: Mapping[str, float]) -> "ResourceVector":
        """Scale named components independently (missing names: factor 1).

        This is the primitive used by benchmark normalisation, where e.g.
        CPU amounts are rescaled by a device's relative speed while memory
        amounts are untouched.
        """
        scaled: Dict[str, float] = {}
        for name, amount in self._amounts.items():
            raw = amount * factors.get(name, 1.0)
            value = float(raw)
            if value < 0:
                raise ValueError(
                    f"resource amounts must be non-negative, got {name}={raw}"
                )
            scaled[name] = value
        return ResourceVector._trusted(scaled)

    def names(self) -> Iterable[str]:
        """Return the resource names present in the vector."""
        return self._amounts.keys()

    def is_zero(self) -> bool:
        """True when every component is zero (or the vector is empty)."""
        return all(v == 0.0 for v in self._amounts.values())

    @staticmethod
    def sum(vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Sum a collection of vectors (Definition 3.1 over the collection).

        Accumulates into one dict: per name, the same left-to-right chain
        of ``+`` that folding ``ZERO + v1 + v2 + ...`` would evaluate.
        """
        total: Dict[str, float] = {}
        for v in vectors:
            if not isinstance(v, ResourceVector):
                raise TypeError(
                    f"can only sum ResourceVectors, got {type(v).__name__}"
                )
            for n, a in v._amounts.items():
                total[n] = total.get(n, 0.0) + a
        return ResourceVector._trusted(total)


ZERO = ResourceVector()


def weighted_magnitude(
    vector: ResourceVector, weights: Optional[Mapping[str, float]] = None
) -> float:
    """The "weighted sum of different resources" from Section 3.3.

    The distribution heuristic measures both resource availability and
    resource requirement as a scalar via this weighted sum (footnote 3 of
    the paper). With no weights given, all resources weigh equally.
    """
    if weights is None:
        return sum(vector.values())
    return sum(weights.get(name, 0.0) * amount for name, amount in vector.items())
