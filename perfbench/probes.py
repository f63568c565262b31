"""Timing wrappers installed on the instances a benchmark pass builds.

Nothing here edits the program: a wrapper replaces a bound method by an
instance attribute of the same name, so only the objects of one pass are
timed and the class stays untouched.

- :class:`SpeedProbe` runs a fixed reference kernel between the timed
  calls of a pass and scales their wall times to a reference machine
  speed, so that a shared machine's speed drift does not read as a
  change of the program.
- :class:`DecisionClock` charges the wall time of the calls made on a
  request's behalf to that request (the ``decide_*`` sample).
- :class:`LayerTimer` records, per layer, the number of calls and the
  *self* time: a call's duration minus the time spent in wrapped calls
  nested inside it. Self times of all layers plus an
  unattributed residual add up to the wall time of the pass.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

CLOCK = time.perf_counter

#: Longest wall time between two runs of the reference kernel in a pass.
CALIBRATION_INTERVAL_S = 0.05
#: The reference kernel's duration on the machine scaled times refer to.
#: Only ratios of scaled times mean anything, so its value is arbitrary;
#: it lies within the range the kernel takes on a 2-core Xeon VM.
REFERENCE_KERNEL_S = 0.005


class GateError(AssertionError):
    """A pass broke an invariant; the run aborts and prints no metrics."""


@dataclass
class PassResult:
    """What one pass measured and decided.

    ``setup_s``, ``wall_s`` and ``decide_s`` are scaled to the reference
    speed; ``kernel_s`` is the pass's median reference kernel duration.
    ``metrics`` holds the deterministic outcome metrics (identical on every
    pass of one seed), ``layers`` the per-layer metrics of a traced pass.
    """

    setup_s: float
    wall_s: float
    decisions: int
    decide_s: List[float]
    digest: str
    metrics: Dict[str, float]
    layers: Optional[Dict[str, float]] = None
    kernel_s: float = 0.0


def nearest_rank(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.0 for an empty sample)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 for an empty sequence."""
    return ratio(sum(values), len(values))


class _Slot:
    __slots__ = ("key", "rank", "score")

    def __init__(self, key: str, rank: int, score: float) -> None:
        self.key, self.rank, self.score = key, rank, score


#: Tables :func:`reference_kernel` reads at random, larger than a core's
#: private caches: 4 MiB of unboxed doubles, and 2 MiB of pointers to
#: float objects scattered over 6 MiB more.
_PACKED = array("d", (random.Random(3).random() for _ in range(1 << 19)))
_BOXED = [random.Random(4).random() for _ in range(1 << 18)]


def reference_kernel() -> float:
    """A fixed pure-Python workload that uses none of the program's code.

    On a shared machine, other tenants slow different kinds of work by
    different amounts, and no single kind followed the program's speed
    as well as a mix did. So the kernel has four parts of similar length:

    - small objects, dict and list growth, keyed sorts, float arithmetic
      and string formatting, the interpreter work the program does;
    - random reads from a packed table of doubles;
    - random reads through a list of boxed floats (pointer chasing);
    - integer arithmetic alone, which touches no memory.

    On a 2-core Xeon virtual machine it took 3 to 8 ms, depending on the
    load of the machine's other tenants.
    """
    rng = random.Random(7)
    groups: Dict[str, List[_Slot]] = {}
    total = 0.0
    for rank in range(1500):
        key = f"k{rng.randrange(200)}"
        slot = _Slot(key, rank, rng.random())
        groups.setdefault(key, []).append(slot)
        total += slot.score * 1.0001
    for slots in groups.values():
        slots.sort(key=lambda slot: slot.score)
    index, mask = 1, len(_PACKED) - 1
    for _ in range(6000):
        index = (index * 1103515245 + 12345) & mask
        total += _PACKED[index]
    index, mask = 1, len(_BOXED) - 1
    for _ in range(3000):
        index = (index * 1103515245 + 12345) & mask
        total += _BOXED[index]
    state = 1
    for _ in range(10000):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
    return total + state


class SpeedProbe:
    """Scales wall times measured on a shared machine to one reference speed.

    A shared machine's speed drifts: identical passes of one seed ran 1.8x
    apart, in phases from under a second to minutes long, and a run's
    median cannot average that out. The probe runs
    :func:`reference_kernel` between the timed calls of a pass, at least
    every :data:`CALIBRATION_INTERVAL_S`, so each stretch of program time
    lies between two kernel runs. A time measured in the stretch after
    kernel run ``i`` (its *segment*) is multiplied by
    ``REFERENCE_KERNEL_S`` over the kernel's duration around it (see
    :meth:`factor`). The kernel uses none of the program's code, so a faster
    program does not make it faster; kernel runs are never inside a timed
    interval.
    """

    def __init__(self) -> None:
        #: ``(start, end)`` of every kernel run, in order.
        self.marks: List[Tuple[float, float]] = []

    def calibrate(self) -> None:
        """Run the kernel now; a new segment starts when it returns.

        The collector is paused so that a collection of the program's heap
        never lands in the kernel; the kernel's objects are freed by
        reference counting as it returns.
        """
        collecting = gc.isenabled()
        gc.disable()
        start = CLOCK()
        reference_kernel()
        end = CLOCK()
        if collecting:
            gc.enable()
        self.marks.append((start, end))

    def maybe_calibrate(self) -> None:
        """Run the kernel if the current segment is at least an interval long."""
        if CLOCK() - self.marks[-1][1] >= CALIBRATION_INTERVAL_S:
            self.calibrate()

    @property
    def segment(self) -> int:
        """Index of the segment running now."""
        return len(self.marks) - 1

    def factor(self, segment: int) -> float:
        """Reference speed over the machine's speed in ``segment``.

        The machine's speed is the median duration of the kernel runs from
        ``segment - 1`` to ``segment + 2``, so one run slowed by an
        interrupt does not skew the two segments it bounds.
        """
        window = self.marks[max(0, segment - 1) : segment + 3]
        return REFERENCE_KERNEL_S / statistics.median(end - start for start, end in window)

    def scaled_s(self, first: int, last: int) -> float:
        """Scaled wall time of segments ``first`` to ``last - 1``, kernels excluded."""
        return sum(
            (self.marks[i + 1][0] - self.marks[i][1]) * self.factor(i) for i in range(first, last)
        )

    def raw_s(self, first: int, last: int) -> float:
        """Unscaled wall time of segments ``first`` to ``last - 1``, kernels excluded."""
        return sum(self.marks[i + 1][0] - self.marks[i][1] for i in range(first, last))

    @property
    def kernel_s(self) -> float:
        """Median kernel duration so far."""
        return statistics.median(end - start for start, end in self.marks)


class DecisionClock:
    """Per-request wall time of the calls that decided it, scaled by a probe."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        #: ``(request_id, elapsed_s, segment)`` per request a call decided.
        self.charges: List[Tuple[str, float, int]] = []
        self._depth = 0

    def wrap(self, obj: object, attr: str, request_ids: Callable[[object], Iterable[str]]) -> None:
        """Charge every call of ``obj.attr`` to the requests it returned.

        ``request_ids`` maps the call's return value to the ids of the
        requests it decided; a batch call charges each member the whole
        call.
        """
        inner = getattr(obj, attr)
        charges, probe = self.charges, self.probe

        def timed(*args, **kwargs):
            if not self._depth:
                probe.maybe_calibrate()
            segment = probe.segment
            self._depth += 1
            start = CLOCK()
            try:
                result = inner(*args, **kwargs)
            finally:
                elapsed = CLOCK() - start
                self._depth -= 1
            for request_id in request_ids(result):
                charges.append((request_id, elapsed, segment))
            return result

        setattr(obj, attr, timed)

    def decide_s(self) -> List[float]:
        """Scaled time charged to each request (call after the pass's last kernel run)."""
        charged: Dict[str, float] = defaultdict(float)
        factor = self.probe.factor
        for request_id, elapsed, segment in self.charges:
            charged[request_id] += elapsed * factor(segment)
        return list(charged.values())


class LayerTimer:
    """Calls and self time per layer, from nested wrappers.

    Self times are unscaled wall time. The probe's kernel runs only
    between outermost wrapped calls, so it never lands in a self time.
    """

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.calls: Dict[str, int] = defaultdict(int)
        self.raised: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        # One slot per active wrapped call: wall time of its wrapped children.
        self._children: List[float] = []

    def wrap(
        self,
        obj: object,
        attr: str,
        layer: str,
        observe: Optional[Callable[["LayerTimer", object], None]] = None,
    ) -> None:
        """Time ``obj.attr`` as ``layer``; ``observe`` reads its return value."""
        inner = getattr(obj, attr)
        stack = self._children
        calls, raised, self_s = self.calls, self.raised, self.self_s
        probe = self.probe

        def timed(*args, **kwargs):
            depth = len(stack)
            if not depth:
                probe.maybe_calibrate()
            stack.append(0.0)
            start = CLOCK()
            try:
                result = inner(*args, **kwargs)
            except Exception:
                raised[layer] += 1
                raise
            finally:
                elapsed = CLOCK() - start
                nested = stack.pop()
                self_s[layer] += elapsed - nested
                calls[layer] += 1
                if depth:
                    stack[depth - 1] += elapsed
            if observe is not None:
                observe(self, result)
            return result

        setattr(obj, attr, timed)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    @property
    def attributed_s(self) -> float:
        """Wall time covered by wrapped calls (the sum of all self times)."""
        return sum(self.self_s.values())


def observe_distribute(timer: LayerTimer, result) -> None:
    """Counts feasible results and search evaluations of ``distribute``."""
    timer.count("distribute.feasible", result.feasible)
    timer.count("distribute.evaluations", result.evaluations)


def layer_times(timer: LayerTimer, wall_s: float) -> Dict[str, float]:
    """``<layer>.self_ms`` and ``<layer>.calls`` per layer, the distributor's
    ratios, and the residual.

    ``wall_s`` is the traced pass's unscaled wall time without the
    probe's kernel runs. The residual is the part of it that no wrapped
    call covers: the simulator, the driver and the benchmark's own loop.
    """
    layers: Dict[str, float] = {}
    for layer, self_s in timer.self_s.items():
        layers[f"{layer}.self_ms"] = self_s * 1000.0
        layers[f"{layer}.calls"] = timer.calls[layer]
    distributes = timer.calls["distribution.distribute"]
    layers["distribution.distribute.feasible_ratio"] = ratio(
        timer.counters["distribute.feasible"], distributes
    )
    layers["distribution.distribute.evaluations_per_call"] = ratio(
        timer.counters["distribute.evaluations"], distributes
    )
    layers["bench.traced_wall_ms"] = wall_s * 1000.0
    layers["bench.unattributed_ms"] = (wall_s - timer.attributed_s) * 1000.0
    if layers["bench.unattributed_ms"] < 0.0:
        raise GateError("layer self times exceed the traced pass's wall time")
    return layers
