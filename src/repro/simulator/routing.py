"""Transfer routing: which transport serves a data movement.

:class:`repro.simulator.memory.DeviceMemory` asks for bytes; it does not
care whether they arrive over the shared host PCIe bus, a dedicated
store (write-back) channel, or an NVLink-style peer link.  All of those
sit behind the one :class:`TransferRouter` interface:

* :class:`HostRouter` — every transfer rides the one bus it wraps (the
  paper's base platform: all fetches come from host memory);
* :class:`repro.simulator.fabric.PeerFabric` — routes a fetch over a
  peer link when another GPU already holds the datum, falling back to
  the host bus (the paper's §VI NVLink extension).

Routers also own the host/peer traffic split statistics that
:class:`repro.simulator.trace.RunResult` reports, so the kernel reads
them uniformly regardless of the configured transport.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

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

    #: cumulative payload bytes served from host memory
    bytes_from_host: float = 0.0
    #: cumulative payload bytes served GPU-to-GPU
    bytes_from_peer: float = 0.0

    def submit(
        self,
        size: float,
        dst: int,
        on_complete: Callable[[], None],
        data_id: Optional[int] = None,
    ) -> None:
        """Start moving ``size`` payload bytes to GPU ``dst``.

        ``data_id`` identifies the datum so routing layers can locate
        alternative sources; transport-agnostic callers always pass it.
        """
        raise NotImplementedError


class HostRouter(TransferRouter):
    """Trivial router: every transfer goes over the one wrapped bus.

    Used for the paper's base platform (fetches from host memory over
    the shared PCIe bus) and for the dedicated full-duplex write-back
    channel of the output-data extension.
    """

    def __init__(self, bus: Bus) -> None:
        self.bus = bus
        self.bytes_from_host = 0.0
        self.bytes_from_peer = 0.0

    def submit(
        self,
        size: float,
        dst: int,
        on_complete: Callable[[], None],
        data_id: Optional[int] = None,
    ) -> None:
        self.bytes_from_host += size
        self.bus.submit(size, dst, on_complete, data_id=data_id)


class RetryingRouter(TransferRouter):
    """Bounded exponential-backoff retry around another router.

    Installed by the kernel when the fault plan carries a
    :class:`repro.simulator.faults.TransferCorruption` spec.  Every
    identified fetch completion draws once from the injector's seeded
    rng; a corrupted completion is reported as
    :class:`~repro.simulator.events.TransferFailed` and resubmitted to
    the inner router after ``backoff_base * backoff_factor**(attempt-1)``
    virtual seconds (:class:`~repro.simulator.events.TransferRetried`).
    After ``max_retries`` corrupted attempts the next attempt succeeds
    unconditionally — bounded retry, graceful degradation.

    Completions into a dead destination are passed straight through
    (the failed memory ignores them) without drawing or retrying, so no
    backoff event can outlive the work that needed the data.  Byte
    accounting lives in the inner router; retries re-account each
    attempt, which is the physical behaviour (the bytes really moved
    again).
    """

    def __init__(
        self,
        inner: TransferRouter,
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

    @property
    def bytes_from_host(self) -> float:  # type: ignore[override]
        return self.inner.bytes_from_host

    @property
    def bytes_from_peer(self) -> float:  # type: ignore[override]
        return self.inner.bytes_from_peer

    def submit(
        self,
        size: float,
        dst: int,
        on_complete: Callable[[], None],
        data_id: Optional[int] = None,
    ) -> None:
        if data_id is None:
            # Unidentified traffic (write-back channel) is never wrapped
            # by the kernel; keep the passthrough for direct users.
            self.inner.submit(size, dst, on_complete, data_id=data_id)
            return
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
