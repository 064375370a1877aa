"""Interconnect fabric: host bus plus optional NVLink-style peer links.

The paper's future-work section (§VI) proposes "tak[ing] inter-GPU
communications into account, such as the one proposed by NVidia NVLinks,
which enable fast data movement between pairs of GPUs without involving
the CPU.  Moving data from a nearby GPU is indeed usually faster than
loading it from the main memory."

:class:`PeerFabric` implements exactly that: when a requested datum is
already resident on another GPU, it is copied over a peer link (one
fair-shared egress channel per source GPU, off the host PCIe bus)
instead of re-fetched from main memory.  The source copy is pinned for
the duration so it cannot be evicted mid-transfer.  Data present nowhere
still come from the host over the shared PCIe bus.  The fabric keeps no
byte counts: the host bus and each peer channel count what they carry,
and the kernel reads the host/peer traffic split from them.

Schedulers need no changes — the routing is at the memory-system level
behind the :class:`repro.simulator.routing.TransferRouter` interface,
just like CUDA peer-to-peer — so every strategy of the paper benefits
automatically; the ``bench_ablation_nvlink`` benchmark quantifies it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.platform.spec import BusSpec
from repro.simulator.bus import Bus, FairShareBus
from repro.simulator.engine import SimulationEngine
from repro.simulator.events import (
    EventStream,
    PeerTransferStarted,
    TransferFailed,
    TransferRetried,
)
from repro.simulator.routing import TransferRouter


class _PeerCopy:
    """One in-flight peer-link copy, poisoned if its source GPU dies."""

    __slots__ = ("src", "dst", "data_id", "size", "poisoned")

    def __init__(self, src: int, dst: int, data_id: int, size: float) -> None:
        self.src = src
        self.dst = dst
        self.data_id = data_id
        self.size = size
        self.poisoned = False


class PeerFabric(TransferRouter):
    """Routes fetches over peer links when a resident copy exists."""

    def __init__(
        self,
        engine: SimulationEngine,
        host_bus: Bus,
        peer_spec: BusSpec,
        n_gpus: int,
        events: Optional[EventStream] = None,
    ) -> None:
        self.engine = engine
        self.host_bus = host_bus
        self.events: Optional[EventStream] = events
        #: one egress channel per source GPU (fair-shared among its
        #: concurrent outgoing copies); instrumented on the same event
        #: stream as the host bus so bus-conservation checks cover them
        self.peer_channels: List[Bus] = [
            FairShareBus(engine, peer_spec, events=events)
            for _ in range(n_gpus)
        ]
        self._memories: Optional[Sequence[object]] = None
        #: in-flight peer copies, in submission order; device-failure
        #: injection poisons the entries whose source just died
        self._inflight: List[_PeerCopy] = []

    def attach(self, memories: Sequence[object]) -> None:
        """Wire the per-GPU memories (the kernel calls this once)."""
        self._memories = memories

    # ------------------------------------------------------------------
    def _locate(self, data_id: int, dst: int) -> Optional[int]:
        """Pick the source GPU for ``data_id``, or None for the host.

        Candidates are GPUs other than ``dst`` whose copy is fully
        PRESENT and not in the middle of being evicted — an eviction
        in progress (between victim selection and state removal, e.g.
        while :class:`~repro.simulator.events.EvictionStarted`
        subscribers run) must not be chosen as a source, since the copy
        is gone by the time the peer transfer would read it.  Ties are
        broken deterministically by taking the lowest GPU index, which
        keeps source selection a pure function of memory state.
        """
        assert self._memories is not None, "fabric not attached"
        for k, mem in enumerate(self._memories):
            if (
                k != dst
                and mem.is_present(data_id)
                and not mem.is_evicting(data_id)
            ):
                return k
        return None

    def on_device_failed(self, gpu: int) -> None:
        """GPU ``gpu`` died: poison its in-flight outgoing peer copies.

        The poisoned copies still occupy their (now dead) source channel
        until their modelled completion — the link hardware does not know
        the payload is garbage — at which point :meth:`submit`'s
        completion handler discards them and re-sources the datum from
        the host instead of delivering corrupt bytes.
        """
        for copy in self._inflight:
            if copy.src == gpu:
                copy.poisoned = True

    def submit(
        self,
        size: float,
        dst: int,
        on_complete: Callable[[], None],
        data_id: int,
    ) -> None:
        src = self._locate(data_id, dst)
        if src is None:
            self.host_bus.submit(size, dst, on_complete, data_id=data_id)
            return
        # Pin the source copy so it survives until the copy lands.
        src_mem = self._memories[src]
        src_mem.pin(data_id)
        record = _PeerCopy(src, dst, data_id, size)
        self._inflight.append(record)
        events = self.events
        if events is not None and events.wants(PeerTransferStarted):
            events.publish(
                PeerTransferStarted(
                    time=self.engine.now, src=src, dst=dst, data_id=data_id
                )
            )

        def done() -> None:
            self._inflight.remove(record)
            if record.poisoned:
                self._failover_to_host(record, on_complete)
                return
            src_mem.unpin(data_id)
            on_complete()

        self.peer_channels[src].submit(size, dst, done, data_id=data_id)

    def _failover_to_host(
        self, record: _PeerCopy, on_complete: Callable[[], None]
    ) -> None:
        """A peer copy's source died mid-transfer: refetch from host.

        The destination's fetch stays in FETCHING state throughout — its
        ``on_complete`` is simply carried over to the host resubmission —
        so the memory layer never observes the failure.  No source unpin
        happens (the source memory wiped its pin table when it failed).
        """
        dst_mem = (
            self._memories[record.dst] if self._memories is not None else None
        )
        events = self.events
        if events is not None and events.wants(TransferFailed):
            events.publish(
                TransferFailed(
                    time=self.engine.now,
                    gpu=record.dst,
                    data_id=record.data_id,
                    attempt=1,
                )
            )
        if dst_mem is not None and getattr(dst_mem, "failed", False):
            # both ends are gone; nobody is waiting for the payload
            on_complete()
            return
        if events is not None and events.wants(TransferRetried):
            events.publish(
                TransferRetried(
                    time=self.engine.now,
                    gpu=record.dst,
                    data_id=record.data_id,
                    attempt=2,
                )
            )
        self.host_bus.submit(
            record.size, record.dst, on_complete, data_id=record.data_id
        )
