"""Host-speed calibration for the wall-clock metrics.

On a shared host the same deterministic simulation can take 1.8x longer
ten minutes later, and each of the two cores of a 2-core host switches
between a fast and a 1.7x slower state every few seconds, independently.
The wall-clock metrics therefore time a calibration loop and rescale
measured seconds by it::

    normalised_seconds = measured_seconds * REFERENCE_S / calibration_s

so they read as host seconds on a machine where the loop takes exactly
``REFERENCE_S``.  The loop is pure Python in the shape of the simulator's
hot path (a heap of small slotted objects, dict updates, short bytes) and
imports nothing from the program, so a change to the program moves the
metric and a change of host speed does not.  It runs with the garbage
collector off, so program-level GC settings cannot change its speed.

Bracketing a whole multi-second run with calibrations cannot follow a
core that changes state mid-run, so a :class:`Meter` interleaves short
slices of the loop with the measured work, on the same core, every
``SLICE_EVERY_S`` of work: the slices sample the host in the same
moments as the work, and the ratio of their sums cancels the host.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Calibration seconds that define the reference host.
REFERENCE_S = 0.1

#: Loop iterations per calibration (about 0.1 s on a 2.1 GHz core).
ITERATIONS = 30_000

#: Loop iterations per interleaved slice (about 5 ms).
SLICE_ITERATIONS = 2_500

#: Seconds of measured work between two slices.
SLICE_EVERY_S = 0.05


class _Item:
    __slots__ = ("when", "seq", "data")

    def __init__(self, when: int, seq: int, data: dict) -> None:
        self.when = when
        self.seq = seq
        self.data = data

    def __lt__(self, other: "_Item") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


def _loop(iterations: int) -> int:
    queue = [_Item(i * 7 % 13, i, {"k": i}) for i in range(64)]
    heapq.heapify(queue)
    table: dict = {}
    total = 0
    for count in range(iterations):
        item = heapq.heappop(queue)
        key = (item.seq * 31 + count) % 997
        table[key] = table.get(key, 0) + len(item.data)
        total += item.data["k"] & 3
        heapq.heappush(queue, _Item(item.when + 1 + (key & 7), count + 64,
                                    {"k": key, "b": bytes(8)}))
    return total


def calibration_s(iterations: int = ITERATIONS) -> float:
    """Seconds ``iterations`` of the loop take on this host right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _loop(iterations)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def normalised(seconds: float, calibration: float) -> float:
    """``seconds`` expressed on the reference host."""
    return seconds * REFERENCE_S / calibration


class Meter:
    """Calibration slices interleaved with measured work.

    The work calls :meth:`tick` often (between chunks of simulation);
    a slice runs whenever ``SLICE_EVERY_S`` has passed since the last.
    Callers subtract the :attr:`slice_s` accrued inside a measured phase
    from its wall time.
    """

    def __init__(self) -> None:
        self.slice_s = 0.0
        self.slices = 0
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= SLICE_EVERY_S:
            self.slice()

    def slice(self) -> None:
        self.slice_s += calibration_s(SLICE_ITERATIONS)
        self.slices += 1
        self._last = time.perf_counter()

    def calibration_s(self) -> float:
        """The slices' mean speed as seconds of a full calibration."""
        return self.slice_s * ITERATIONS / (self.slices * SLICE_ITERATIONS)
