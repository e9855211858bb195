"""Deterministic discrete-event scheduler — the simulation's clock.

Everything in :mod:`repro.sim` and :mod:`repro.net` advances time by
scheduling callbacks here.  Determinism matters: two events at the same
instant fire in scheduling order (a monotone sequence number breaks
ties), so simulation runs are exactly reproducible, which the test suite
and the benchmark tables rely on.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

__all__ = ["Event", "EventScheduler"]


class Event:
    """A scheduled callback; cancellable until it fires."""

    __slots__ = ("time", "sequence", "callback", "args", "cancelled")

    def __init__(
        self, time: float, sequence: int, callback: Callable[..., None], args: tuple = ()
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True


class EventScheduler:
    """A min-heap of timed events with a monotonically advancing clock."""

    def __init__(self) -> None:
        #: current simulated time, in seconds (read-only for callers)
        self.now = 0.0
        self._sequence = 0
        # ``(time, sequence, event)``: the unique sequence number settles
        # every comparison in C before the tuple reaches the event.
        self._heap: list[tuple[float, int, Event]] = []
        self.events_fired = 0

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"cannot schedule {delay}s into the past")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute time ``time``."""
        if not time >= self.now:  # also refuses NaN, which no heap can order
            raise ValueError(
                f"cannot schedule at {time}, clock is already at {self.now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, sequence, callback, args)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def pending(self) -> int:
        """Number of live (uncancelled) events still queued."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def next_time(self) -> float | None:
        """Time of the earliest live event (None when none remain).

        Cancelled events at the heap head are discarded as a side
        effect, so repeated calls are cheap — the sharded orchestrator
        polls this every synchronization window, and :meth:`run` before
        every event it fires.
        """
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if not event.cancelled:
                return time
            heapq.heappop(heap)
        return None

    def step(self) -> bool:
        """Fire the next event; returns False when none remain."""
        heap = self._heap
        while heap:
            time, _, event = heapq.heappop(heap)
            if event.cancelled:
                continue
            self.now = time
            self.events_fired += 1
            event.callback(*event.args)
            return True
        return False

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> float:
        """Fire events until the queue drains, ``until`` is reached, or
        ``max_events`` have run.  Returns the clock afterwards.

        ``until`` also advances the clock to that time even if the queue
        drained earlier, so idle periods are representable.
        """
        fired = 0
        while True:
            head = self.next_time()
            if head is None:
                break
            if max_events is not None and fired >= max_events:
                return self.now
            if until is not None and head > until:
                break
            self.step()
            fired += 1
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def run_until(self, horizon: float) -> int:
        """Bounded-horizon advance: fire every event strictly before
        ``horizon``, then set the clock to exactly ``horizon``.

        This is the shard-side half of conservative synchronization
        (:mod:`repro.sim.orchestrator`): a shard granted time ``t`` may
        execute everything it knows about up to — but excluding — ``t``,
        because cross-segment frames produced elsewhere are guaranteed
        to arrive at or after the grant (wire serialization plus bridge
        store-and-forward delay is the lookahead).  The half-open window
        means an event *at* the horizon still fires in the next window,
        after any inter-segment frames for that instant were injected.

        Returns the number of events fired.  The horizon may equal the
        current clock (a zero-width window is a no-op); moving it
        backwards raises.
        """
        if not horizon >= self.now:  # NaN included
            raise ValueError(
                f"cannot run until {horizon}, clock is already at {self.now}"
            )
        # The heap head is read here, not through :meth:`next_time`: one
        # call fewer per event.  Each event still fires through
        # :meth:`step`.
        heap = self._heap
        fired = 0
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if time >= horizon:
                break
            self.step()
            fired += 1
        self.now = horizon
        return fired
