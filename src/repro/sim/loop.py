"""The discrete-event simulation kernel.

A :class:`Simulator` owns a virtual clock and a binary heap of pending
events. Everything else in the testbed — network links, disks, protocol
timers, workload clients — schedules callbacks on this kernel. Time is
a float in **seconds** of simulated time.

Determinism is a hard requirement (DESIGN.md §4): two events scheduled
for the same instant fire in scheduling order, enforced with a
monotonically increasing sequence number used as the heap tie-breaker.
Combined with the seeded RNG streams in :mod:`repro.sim.rng`, a given
experiment seed always produces the identical trace.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable


class Event:
    """Handle to a scheduled callback; supports cancellation.

    The heap holds ``(time, seq, event)`` tuples, so ordering is decided
    by C-level tuple comparison on ``(time, seq)`` and the event itself
    is never compared.
    """

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]):
        #: Simulated time at which the callback fires.
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        Cancellation is O(1): the heap entry is tombstoned and skipped
        when popped.
        """
        self.cancelled = True


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling in the past)."""


class Simulator:
    """Event loop with a virtual clock.

    Typical use::

        sim = Simulator(seed=7)
        sim.call_at(1.0, lambda: print("hello at t=1"))
        sim.run(until=10.0)
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Event]] = []
        self._running = False
        self.seed = seed
        # Lazily-built named RNG substreams (see repro.sim.rng).
        from .rng import RngRegistry

        self.rng = RngRegistry(seed)
        self.events_processed = 0

    # -- clock ----------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -----------------------------------------------------

    def call_at(self, when: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run at absolute time ``when``."""
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at t={when} < now={self._now}"
            )
        ev = Event(when, callback)
        heapq.heappush(self._heap, (when, self._seq, ev))
        self._seq += 1
        return ev

    def call_after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.call_at(self._now + delay, callback)

    def call_soon(self, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at the current instant (after events
        already queued for this instant)."""
        return self.call_at(self._now, callback)

    # -- running --------------------------------------------------------

    def step(self) -> bool:
        """Run the single next event. Returns False if the queue is empty."""
        heap = self._heap
        while heap:
            when, _, ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            self._now = when
            self.events_processed += 1
            ev.callback()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.

        When ``until`` is given, the clock is advanced to exactly
        ``until`` at exit if no live event at or before ``until`` is
        left (the queue drained, or the next event lies past it), so
        metrics sampled at "end of run" are well defined. A run cut
        short by ``max_events`` leaves the clock at the last event
        fired, so the next run never moves it backwards.

        ``events_processed`` is brought up to date when the run returns.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        processed = 0
        try:
            while heap and processed < budget:
                entry = pop(heap)
                ev = entry[2]
                if ev.cancelled:
                    continue
                when = entry[0]
                if when > horizon:
                    heapq.heappush(heap, entry)
                    break
                self._now = when
                processed += 1
                ev.callback()
        finally:
            self.events_processed += processed
            self._running = False
            if until is not None and self._now < until:
                while heap and heap[0][2].cancelled:
                    pop(heap)
                if not heap or heap[0][0] > until:
                    self._now = until

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)
