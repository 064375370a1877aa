"""Shared CPU↔GPU bus models.

All GPUs fetch input data from host memory over one bus (paper Fig. 2),
whose bounded bandwidth is the resource the schedulers compete for.  Two
contention models are provided:

* :class:`FairShareBus` — fluid processor sharing: ``t`` in-flight
  transfers each progress at ``bandwidth / t``.  This is how SimGrid
  models a shared PCIe link and is the default.
* :class:`FifoBus` — transfers fully serialised in request order at full
  bandwidth; simpler, slightly pessimistic for overlap.

Per-transfer ``latency`` is folded in as a bandwidth-equivalent byte count
(``latency × bandwidth`` extra bytes), which keeps the fluid model exact
while still penalising many small transfers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Deque, List, Optional
from collections import deque

from repro.platform.spec import BusSpec
from repro.simulator.engine import EventHandle, SimulationEngine
from repro.simulator.events import EventStream, TransferCompleted

#: Residual byte tolerance when deciding that a fluid transfer finished.
_COMPLETION_TOL_BYTES = 1e-3


@dataclass
class _Transfer:
    remaining: float  # bytes (latency-equivalent included)
    size: float  # payload bytes (for statistics)
    dst: int  # destination GPU index
    on_complete: Callable[[], None]


class Bus:
    """Common interface and statistics for bus models."""

    def __init__(
        self,
        engine: SimulationEngine,
        spec: BusSpec,
        events: Optional[EventStream] = None,
    ) -> None:
        self.engine = engine
        self.spec = spec
        #: payload bytes carried, counted at completion; the run's
        #: host/peer traffic split is read from these counters
        self.bytes_transferred: float = 0.0
        self.n_transfers: int = 0
        #: instrumentation stream; a :class:`TransferCompleted` is
        #: published after each transfer is accounted (subscribed by the
        #: sanitizer's bus-conservation check)
        self.events: EventStream = events if events is not None else EventStream()

    def submit(
        self,
        size: float,
        dst: int,
        on_complete: Callable[[], None],
        data_id: Optional[int] = None,
    ) -> None:
        """Start moving ``size`` payload bytes to GPU ``dst``.

        ``data_id`` identifies the datum for routing layers (the NVLink
        fabric uses it to locate peer copies); a bus ignores it, and the
        write-back channel submits without one.
        """
        raise NotImplementedError

    @property
    def busy(self) -> bool:
        raise NotImplementedError

    def _account(self, t: _Transfer) -> None:
        self.bytes_transferred += t.size
        self.n_transfers += 1
        if self.events.wants(TransferCompleted):
            self.events.publish(
                TransferCompleted(time=self.engine.now, bus=self)
            )


class FairShareBus(Bus):
    """Fluid fair sharing: each active transfer gets ``B / n_active``."""

    def __init__(
        self,
        engine: SimulationEngine,
        spec: BusSpec,
        events: Optional[EventStream] = None,
    ) -> None:
        super().__init__(engine, spec, events)
        self._active: List[_Transfer] = []
        self._last_update: float = 0.0
        self._completion: Optional[EventHandle] = None

    @property
    def busy(self) -> bool:
        return bool(self._active)

    def submit(self, size, dst, on_complete, data_id=None):
        if size <= 0:
            raise ValueError(f"transfer size must be positive, got {size}")
        self._advance()
        self._active.append(
            _Transfer(
                remaining=size + self.spec.latency * self.spec.bandwidth,
                size=size,
                dst=dst,
                on_complete=on_complete,
            )
        )
        self._reschedule()

    def _advance(self) -> None:
        """Apply progress accrued since the last state change."""
        now = self.engine.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._active:
            return
        rate = self.spec.bandwidth / len(self._active)
        for t in self._active:
            t.remaining -= dt * rate

    def _reschedule(self) -> None:
        if self._completion is not None:
            self._completion.cancel()
            self._completion = None
        if not self._active:
            return
        rate = self.spec.bandwidth / len(self._active)
        min_remaining = min(t.remaining for t in self._active)
        delay = max(min_remaining, 0.0) / rate
        self._completion = self.engine.schedule(delay, self._on_completion)

    def _on_completion(self) -> None:
        self._completion = None
        self._advance()
        done = [t for t in self._active if t.remaining <= _COMPLETION_TOL_BYTES]
        if not done:
            # Numeric drift: force-complete the most advanced transfer.
            done = [min(self._active, key=lambda t: t.remaining)]
        for t in done:
            self._active.remove(t)
        self._reschedule()
        for t in done:
            self._account(t)
            t.on_complete()


class FifoBus(Bus):
    """One transfer at a time, in request order, at full bandwidth."""

    def __init__(
        self,
        engine: SimulationEngine,
        spec: BusSpec,
        events: Optional[EventStream] = None,
    ) -> None:
        super().__init__(engine, spec, events)
        self._queue: Deque[_Transfer] = deque()
        self._current: Optional[_Transfer] = None

    @property
    def busy(self) -> bool:
        return self._current is not None or bool(self._queue)

    def submit(self, size, dst, on_complete, data_id=None):
        if size <= 0:
            raise ValueError(f"transfer size must be positive, got {size}")
        self._queue.append(
            _Transfer(remaining=size, size=size, dst=dst, on_complete=on_complete)
        )
        self._maybe_start()

    def _maybe_start(self) -> None:
        if self._current is not None or not self._queue:
            return
        t = self._queue.popleft()
        self._current = t
        duration = self.spec.latency + t.size / self.spec.bandwidth
        self.engine.schedule(duration, self._finish)

    def _finish(self) -> None:
        t = self._current
        assert t is not None
        self._current = None
        self._maybe_start()
        self._account(t)
        t.on_complete()


def make_bus(
    engine: SimulationEngine,
    spec: BusSpec,
    events: Optional[EventStream] = None,
) -> Bus:
    """Instantiate the bus model selected by ``spec.model``."""
    if spec.model == "fair":
        return FairShareBus(engine, spec, events=events)
    if spec.model == "fifo":
        return FifoBus(engine, spec, events=events)
    raise ValueError(f"unknown bus model {spec.model!r}")
