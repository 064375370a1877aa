"""Deterministic discrete-event core.

A binary heap of ``(time, sequence, entry)`` tuples.  The sequence
number makes simultaneous events fire in scheduling order, so a run is a
pure function of its inputs — the property every test and every
"same seed ⇒ same trace" guarantee in this package rests on.

Performance notes (profile-guided; perfbench's ``engine.*`` metrics
measure this layer):

* Heap items are plain tuples keyed on ``(time, seq)``; because every
  ``seq`` is unique the comparison never falls through to the payload,
  and tuple comparison is an order of magnitude cheaper than the
  ``@dataclass(order=True)`` wrapper it replaces.
* The entry payload itself is a ``__slots__`` object so cancellation
  flags stay shared between the heap and its :class:`EventHandle`.
* ``pending`` is an O(1) counter maintained on schedule/fire/cancel
  instead of an O(n) scan.
* Cancelled entries are removed lazily; when they outnumber the live
  ones (more than half the heap) the heap is compacted in one pass.
  Compaction is invisible to the event order: heap keys are unique, so
  pops always return entries in exact ``(time, seq)`` order regardless
  of the heap's internal layout.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from repro.simulator.events import EngineStep, EventStream

#: Below this heap size compaction is pointless — the lazy drain in
#: ``step``/``_peek_time`` collects garbage fast enough.
_COMPACT_MIN = 64


class _Entry:
    """Heap payload.  Identity is carried by the ``(time, seq)`` key of
    the enclosing tuple; the payload only holds the callback and the
    cancellation flag shared with :class:`EventHandle`."""

    __slots__ = ("callback", "cancelled")

    def __init__(self, callback: Optional[Callable[[], None]]) -> None:
        self.callback = callback
        self.cancelled = False


class EventHandle:
    """Returned by :meth:`SimulationEngine.schedule`; allows cancellation."""

    __slots__ = ("_engine", "_entry", "_time")

    def __init__(self, engine: "SimulationEngine", entry: _Entry, time: float) -> None:
        self._engine = engine
        self._entry = entry
        self._time = time

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        entry = self._entry
        if not entry.cancelled:
            entry.cancelled = True
            self._engine._note_cancel(entry)

    @property
    def cancelled(self) -> bool:
        return self._entry.cancelled

    @property
    def time(self) -> float:
        return self._time


class SimulationEngine:
    """Event loop with virtual time."""

    def __init__(self, events: Optional[EventStream] = None) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, _Entry]] = []
        self._seq = 0
        self._events_fired = 0
        #: live (scheduled, not yet fired, not cancelled) entries.
        self._live = 0
        #: cancelled entries still sitting in the heap.
        self._dead = 0
        #: instrumentation stream; an :class:`EngineStep` is published
        #: before each event fires (subscribed by the sanitizer's
        #: monotonicity check).  Costs one dict lookup when nobody
        #: subscribed.
        self.events: EventStream = events if events is not None else EventStream()

    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at ``now + delay``.  ``delay`` must be ≥ 0."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Run ``callback`` at absolute virtual ``time`` ≥ ``now``."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time} < now {self.now}")
        entry = _Entry(callback)
        heapq.heappush(self._heap, (time, self._seq, entry))
        self._seq += 1
        self._live += 1
        return EventHandle(self, entry, time)

    def _note_cancel(self, entry: _Entry) -> None:
        """Move one entry from the live to the dead count (cancel path)."""
        if entry.callback is None:
            return  # already fired or already drained from the heap
        self._live -= 1
        self._dead += 1
        if self._dead * 2 > len(self._heap) and len(self._heap) >= _COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Safe at any moment: heap keys ``(time, seq)`` are unique, so the
        pop order after a heapify is identical to the pop order of the
        incrementally-built heap.
        """
        live_items = []
        for item in self._heap:
            entry = item[2]
            if entry.cancelled:
                entry.callback = None
            else:
                live_items.append(item)
        self._heap = live_items
        heapq.heapify(self._heap)
        self._dead = 0

    def step(self) -> bool:
        """Fire the next pending event.  Returns False when none remain."""
        while self._heap:
            time, _seq, entry = heapq.heappop(self._heap)
            if entry.cancelled:
                entry.callback = None
                self._dead -= 1
                continue
            if self.events.wants(EngineStep):
                self.events.publish(EngineStep(time=time, now=self.now))
            self.now = time
            self._events_fired += 1
            self._live -= 1
            callback = entry.callback
            entry.callback = None
            assert callback is not None
            callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Drain the event queue (optionally stopping at time ``until``).

        With ``until`` set, every live event scheduled at or before
        ``until`` fires, then ``now`` advances to ``until`` (never
        backward: ``until < now`` leaves the clock alone).  Cancelled
        entries are drained without ever touching the clock, so a
        cancel-then-reschedule pattern cannot push ``now`` past a live
        event (see ``test_engine.py::test_cancel_then_reschedule``).

        ``max_events`` is a runaway guard; hitting it raises RuntimeError
        instead of spinning forever on a buggy model.
        """
        fired = 0
        while self._heap:
            if until is not None and self._peek_time() > until:
                break
            if not self.step():
                break
            fired += 1
            if fired > max_events:
                raise RuntimeError(
                    f"simulation exceeded {max_events} events; "
                    "likely a livelock in the model"
                )
        if until is not None and until > self.now:
            self.now = until

    def _peek_time(self) -> float:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heap[0][2].callback = None
            heapq.heappop(heap)
            self._dead -= 1
        return heap[0][0] if heap else float("inf")

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled scheduled events (O(1))."""
        return self._live

    @property
    def events_fired(self) -> int:
        return self._events_fired
