"""Transfer routing: which transport serves a data movement.

:class:`repro.simulator.memory.DeviceMemory` asks for bytes; it does not
care whether they arrive over the shared host PCIe bus or an
NVLink-style peer link.  It submits to a :data:`Transport`:

* a bare :class:`~repro.simulator.bus.Bus` — every fetch rides the host
  bus (the paper's base platform: all fetches come from host memory);
* :class:`repro.simulator.fabric.PeerFabric` — a :class:`TransferRouter`
  that routes a fetch over a peer link when another GPU already holds
  the datum, falling back to the host bus (the paper's §VI NVLink
  extension);
* :class:`RetryingRouter` — retries corrupted fetches around either.

Routers only choose a transport; each bus counts the bytes it carries
(:attr:`~repro.simulator.bus.Bus.bytes_transferred`), and the kernel
reads the host/peer traffic split from the buses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Union

from repro.simulator.bus import Bus
from repro.simulator.events import TransferFailed, TransferRetried

if TYPE_CHECKING:  # pragma: no cover - typing only
    import random

    from repro.simulator.engine import SimulationEngine
    from repro.simulator.events import EventStream
    from repro.simulator.faults import TransferCorruption


class TransferRouter:
    """Source selection + submission interface for data movements.

    Implementations must be deterministic: the same request sequence
    must pick the same sources and produce the same completion times
    (the repo's same-seed ⇒ same-trace contract).
    """

    def submit(
        self,
        size: float,
        dst: int,
        on_complete: Callable[[], None],
        data_id: int,
    ) -> None:
        """Start moving ``size`` payload bytes of datum ``data_id`` to
        GPU ``dst``; ``data_id`` lets routers locate alternative sources.
        """
        raise NotImplementedError


#: what a memory fetches through: a bus, or a router in front of buses
Transport = Union[Bus, TransferRouter]


class RetryingRouter(TransferRouter):
    """Bounded exponential-backoff retry around another transport.

    Installed by the kernel when the fault plan carries a
    :class:`repro.simulator.faults.TransferCorruption` spec.  Every
    fetch completion draws once from the injector's seeded
    rng; a corrupted completion is reported as
    :class:`~repro.simulator.events.TransferFailed` and resubmitted to
    the inner transport after ``backoff_base * backoff_factor**(attempt-1)``
    virtual seconds (:class:`~repro.simulator.events.TransferRetried`).
    After ``max_retries`` corrupted attempts the next attempt succeeds
    unconditionally — bounded retry, graceful degradation.

    Completions into a dead destination are passed straight through
    (the failed memory ignores them) without drawing or retrying, so no
    backoff event can outlive the work that needed the data.  The
    buses behind the inner transport count every attempt, which is the
    physical behaviour (the bytes really moved again).
    """

    def __init__(
        self,
        inner: Transport,
        engine: "SimulationEngine",
        rng: "random.Random",
        corruption: "TransferCorruption",
        events: "EventStream",
        alive: Callable[[int], bool],
    ) -> None:
        self.inner = inner
        self.engine = engine
        self.rng = rng
        self.corruption = corruption
        self.events = events
        self.alive = alive

    def submit(
        self,
        size: float,
        dst: int,
        on_complete: Callable[[], None],
        data_id: int,
    ) -> None:
        self._attempt(size, dst, on_complete, data_id, attempt=1)

    def _attempt(
        self,
        size: float,
        dst: int,
        on_complete: Callable[[], None],
        data_id: int,
        attempt: int,
    ) -> None:
        spec = self.corruption

        def done() -> None:
            if not self.alive(dst):
                on_complete()  # dead destination ignores the payload
                return
            if (
                attempt <= spec.max_retries
                and self.rng.random() < spec.probability
            ):
                events = self.events
                if events.wants(TransferFailed):
                    events.publish(
                        TransferFailed(
                            time=self.engine.now,
                            gpu=dst,
                            data_id=data_id,
                            attempt=attempt,
                        )
                    )
                delay = spec.backoff_base * (
                    spec.backoff_factor ** (attempt - 1)
                )
                self.engine.schedule(
                    delay,
                    lambda: self._retry(size, dst, on_complete, data_id, attempt),
                )
                return
            on_complete()

        self.inner.submit(size, dst, done, data_id=data_id)

    def _retry(
        self,
        size: float,
        dst: int,
        on_complete: Callable[[], None],
        data_id: int,
        failed_attempt: int,
    ) -> None:
        if not self.alive(dst):
            return  # destination died during the backoff; nobody waits
        events = self.events
        if events.wants(TransferRetried):
            events.publish(
                TransferRetried(
                    time=self.engine.now,
                    gpu=dst,
                    data_id=data_id,
                    attempt=failed_attempt + 1,
                )
            )
        self._attempt(size, dst, on_complete, data_id, failed_attempt + 1)
