"""Host-speed calibration interleaved with the measured loop.

The benchmark shares its machine, and neighbours slow the host by 10-20%
for seconds at a time, far more than the changes it has to resolve. So
the loop runs a fixed pure-Python kernel every :data:`INTERVAL_S` and
records how long the second of two back-to-back runs took (the first
refills the caches the engine's work evicted, which would otherwise make
the probe measure the engine's footprint). Each measured duration is then
rescaled by ``REFERENCE_S / k``, where ``k`` is the median kernel time in
a window around the operation: the result is the time the operation
would take on a host running the kernel in ``REFERENCE_S``. Both the raw
and the rescaled figures are kept; the end-to-end metrics use the
rescaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import struct
import time

#: Seconds between kernel probes inside the measured loop.
INTERVAL_S = 0.02
#: Kernel probes around each set-up.
SETUP_PROBES = 10
#: Half-width of the window of probes that rescales one duration.
WINDOW_S = 0.5
#: Fewest probes a window may use; narrower windows take the nearest.
MIN_PROBES = 5
#: Kernel time on the reference host (an unloaded 2-core cloud VM).
REFERENCE_S = 0.0005

_ROW = struct.Struct("<iid")


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key, value) -> None:
        self.key = key
        self.value = value


def kernel() -> int:
    """Interpreter work shaped like the engine's: struct packing, dict and
    tuple churn, attribute access and small calls."""
    table: dict = {}
    total = 0
    for i in range(600):
        packed = _ROW.pack(i, i & 31, i * 0.5)
        a, b, c = _ROW.unpack(packed)
        slot = _Slot((b, a), (a, str(a), c))
        table[slot.key] = slot
        hit = table.get((i & 31, i - 7))
        if hit is not None:
            total += len(hit.value[1])
    return total


class HostSpeed:
    """Kernel probe times and the rescaling they give."""

    def __init__(self) -> None:
        #: Probe end times and durations, in time order.
        self.ends: list[float] = []
        self.seconds: list[float] = []
        self._next = 0.0

    def probe(self) -> None:
        # The first run refills the caches the engine just evicted; timing
        # it would measure the engine's footprint, not the host's speed.
        kernel()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.seconds.append(end - start)
        self._next = end + INTERVAL_S

    def maybe_probe(self) -> None:
        """Probe if :data:`INTERVAL_S` has passed since the last probe."""
        if time.perf_counter() >= self._next:
            self.probe()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median probe time around [start, end]."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        if hi - lo < MIN_PROBES:
            middle = bisect.bisect_left(self.ends, (start + end) / 2)
            lo = max(0, middle - MIN_PROBES // 2 - 1)
            hi = min(len(self.ends), lo + MIN_PROBES)
            lo = max(0, hi - MIN_PROBES)
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])
