"""Wall-clock timing rescaled to a reference machine speed.

On a shared virtual machine, back-to-back repeats of one identical run
completed between 893 and 1546 simulated ops per wall second:
neighbours change the CPU's speed for seconds at a time, which no
amount of repetition inside one run averages away. So the run pauses
about every :data:`CALIBRATE_EVERY_S` of timed wall time for one pass
of a fixed pure-Python calibration loop (:func:`calibration_pass`:
heap, dict, small-object and closure work like the simulator's, but no
code from the store), and each timed stretch is reported in *reference
seconds*: its wall seconds times the speed of the calibration passes
on either side of it, over :data:`REFERENCE_PASSES_PER_S`. In the same
repeats the rescaled rate varied by a few percent.

Because the calibration loop never runs store code, a change that
makes the store faster moves the rescaled numbers as it moves the raw
ones.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Calibration passes per second on the reference machine, by
#: definition; a host that runs this many passes per second reports its
#: raw wall times unchanged.
REFERENCE_PASSES_PER_S = 1000.0

#: Timed wall time between calibration passes.
CALIBRATE_EVERY_S = 0.02


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int):
        self.key = key
        self.value = value


def calibration_pass(n: int = 600) -> int:
    """A fixed slice of interpreter work (about 1 ms)."""
    heap: list = []
    table: dict[str, _Item] = {}
    out = 0
    for i in range(n):
        item = _Item(f"k{i % 61}", i)
        heapq.heappush(heap, (i * 2654435761 % 4093, i, item))
        table[item.key] = item
    while heap:
        _, _, item = heapq.heappop(heap)
        prev = table.get(item.key)
        out += (prev.value if prev is not None else 0) & 0xFF
        bump = lambda x=item: x.value + 1  # noqa: E731 - closure call cost
        out += bump() & 1
    return out


class Clock:
    """Times named stretches of a run and calibrates between them.

    Each stretch adds to a *bucket*; :attr:`seconds` holds each bucket's
    reference seconds and :attr:`raw` its wall seconds, complete after
    :meth:`close`. ``profile`` (a ``cProfile.Profile`` or None) is
    enabled only inside stretches timed with ``profiled=True``, so
    neither set-up nor calibration is profiled.
    """

    def __init__(self, profile=None):
        self.profile = profile
        self.seconds: dict = {}
        self.raw: dict = {}
        self.passes = 0
        self.pass_s = 0.0
        self._pending: list[tuple[object, float]] = []
        self._last_pass: float | None = None
        self._since = 0.0

    def timed(self, bucket, fn, *args, profiled: bool = False) -> None:
        """Run ``fn(*args)`` as one stretch of ``bucket``."""
        profile = self.profile if profiled else None
        if profile is not None:
            profile.enable()
        t0 = time.perf_counter()
        try:
            fn(*args)
        finally:
            dt = time.perf_counter() - t0
            if profile is not None:
                profile.disable()
        self.raw[bucket] = self.raw.get(bucket, 0.0) + dt
        self._pending.append((bucket, dt))
        self._since += dt
        if self._since >= CALIBRATE_EVERY_S:
            self.calibrate()

    def calibrate(self, passes: int = 1) -> None:
        """Time ``passes`` calibration passes and rescale the stretches
        since the previous calibration by the mean of the two."""
        # A pass frees all it allocates, so with the collector off it
        # neither pays for nor shifts a collection of the store's heap.
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(passes):
                calibration_pass()
            t = (time.perf_counter() - t0) / passes
        finally:
            gc.enable()
        local = t if self._last_pass is None else (self._last_pass + t) / 2
        for bucket, dt in self._pending:
            self.seconds[bucket] = (
                self.seconds.get(bucket, 0.0)
                + dt / local / REFERENCE_PASSES_PER_S
            )
        self._pending.clear()
        self._last_pass = t
        self._since = 0.0
        self.passes += passes
        self.pass_s += t * passes

    def close(self) -> None:
        """Rescale the stretches still waiting for a calibration."""
        if self._pending:
            self.calibrate()

    @property
    def speed(self) -> float:
        """Mean calibration passes per second of this run."""
        return self.passes / self.pass_s if self.passes else 0.0
