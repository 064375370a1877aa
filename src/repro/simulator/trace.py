"""Execution traces and aggregated run results."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.events import EventStream, RuntimeEvent


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped runtime event.

    ``kind`` is one of ``fetch_start``, ``fetch_end``, ``task_start``,
    ``task_end``, ``evict``, ``store_start``, ``store_end`` (output
    write-backs), or — under fault injection — ``device_failed``,
    ``task_requeued``, ``replica_lost``, ``xfer_fail``, ``xfer_retry``;
    ``ref`` is the data id, task id, or (for ``device_failed``) the
    failed GPU index.
    """

    time: float
    kind: str
    gpu: int
    ref: int


class TraceRecorder:
    """Collects :class:`TraceEvent` records when tracing is enabled."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self.events: List[TraceEvent] = []

    def record(self, time: float, kind: str, gpu: int, ref: int) -> None:
        if self.enabled:
            self.events.append(TraceEvent(time, kind, gpu, ref))

    def digest(self) -> str:
        """SHA-256 over the exact event stream.

        Timestamps are hashed via ``repr`` (full float precision), so two
        digests are equal iff the traces are bit-identical — the
        determinism contract checked by the sanitizer's SAN007 and the
        ``python -m repro.check`` smoke runs.
        """
        h = hashlib.sha256()
        for e in self.events:
            h.update(f"{e.time!r}|{e.kind}|{e.gpu}|{e.ref}\n".encode())
        return h.hexdigest()

    def subscribe_to(self, stream: "EventStream") -> None:
        """Record runtime events published on ``stream``.

        Subscribes one handler per event type so the kind mapping is a
        plain attribute read, not an isinstance chain.  When recording is
        disabled nothing is subscribed at all: the publishers' ``wants``
        guards then skip event construction entirely, keeping the fetch
        hot path free of tracing overhead.
        """
        if not self.enabled:
            return
        from repro.simulator import events as ev

        def data_kind(kind: str):
            def handler(e: "RuntimeEvent") -> None:
                self.record(e.time, kind, e.gpu, e.data_id)  # type: ignore[attr-defined]

            return handler

        def task_kind(kind: str):
            def handler(e: "RuntimeEvent") -> None:
                self.record(e.time, kind, e.gpu, e.task)  # type: ignore[attr-defined]

            return handler

        stream.subscribe(task_kind("task_start"), ev.TaskStarted)
        stream.subscribe(task_kind("task_end"), ev.TaskCompleted)
        stream.subscribe(data_kind("fetch_start"), ev.FetchIssued)
        stream.subscribe(data_kind("fetch_end"), ev.FetchCompleted)
        stream.subscribe(data_kind("evict"), ev.Evicted)
        stream.subscribe(data_kind("store_start"), ev.WriteBackStarted)
        stream.subscribe(data_kind("store_end"), ev.WriteBackCompleted)
        # Fault-injection kinds.  These events only occur under a fault
        # plan, so subscribing them never perturbs fault-free digests;
        # under a plan they make recovery part of the SAN007 contract.

        def device_failed(e: "RuntimeEvent") -> None:
            self.record(e.time, "device_failed", e.gpu, e.gpu)  # type: ignore[attr-defined]

        stream.subscribe(device_failed, ev.DeviceFailed)
        stream.subscribe(task_kind("task_requeued"), ev.TaskRequeued)
        stream.subscribe(data_kind("replica_lost"), ev.DataReplicaLost)
        stream.subscribe(data_kind("xfer_fail"), ev.TransferFailed)
        stream.subscribe(data_kind("xfer_retry"), ev.TransferRetried)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def on_gpu(self, gpu: int) -> List[TraceEvent]:
        return [e for e in self.events if e.gpu == gpu]


@dataclass
class GpuStats:
    """Per-GPU outcome of a simulated run."""

    n_tasks: int = 0
    n_loads: int = 0
    bytes_loaded: float = 0.0
    n_evictions: int = 0
    busy_time: float = 0.0
    flops: float = 0.0
    #: output write-backs (the output-data extension)
    n_stores: int = 0
    bytes_stored: float = 0.0


@dataclass
class RunResult:
    """Aggregated outcome of one simulated execution."""

    scheduler: str
    n_gpus: int
    makespan: float
    total_flops: float
    gpus: List[GpuStats] = field(default_factory=list)
    #: wall-clock seconds spent inside the scheduler (prepare + decisions)
    scheduling_time: float = 0.0
    #: wall-clock seconds of the static preparation phase only
    prepare_time: float = 0.0
    #: wall-clock seconds of per-decision scheduler calls (diagnostic:
    #: host-Python speed, NOT charged to throughput)
    decision_wall_time: float = 0.0
    #: virtual seconds of modelled decision latency (op-count based);
    #: already part of the makespan via task start gating
    virtual_decision_time: float = 0.0
    trace: Optional[TraceRecorder] = None
    #: SHA-256 of the trace event stream (None when tracing is off);
    #: same seed ⇒ same digest is the repo's determinism contract
    trace_digest: Optional[str] = None
    #: order in which each GPU executed its tasks (task ids)
    executed_order: List[List[int]] = field(default_factory=list)
    #: traffic split when NVLink peer links are enabled (bytes)
    bytes_from_host: float = 0.0
    bytes_from_peer: float = 0.0

    @property
    def peer_fraction(self) -> float:
        """Share of traffic served GPU-to-GPU instead of from the host."""
        total = self.bytes_from_host + self.bytes_from_peer
        return self.bytes_from_peer / total if total > 0 else 0.0

    @property
    def total_loads(self) -> int:
        return sum(g.n_loads for g in self.gpus)

    @property
    def total_bytes(self) -> float:
        """Objective 2 in bytes: total CPU→GPU traffic."""
        return sum(g.bytes_loaded for g in self.gpus)

    @property
    def total_mb(self) -> float:
        return self.total_bytes / 1e6

    @property
    def total_evictions(self) -> int:
        return sum(g.n_evictions for g in self.gpus)

    @property
    def total_stored_bytes(self) -> float:
        """GPU→host write-back traffic (output-data extension)."""
        return sum(g.bytes_stored for g in self.gpus)

    @property
    def total_stores(self) -> int:
        return sum(g.n_stores for g in self.gpus)

    @property
    def gflops(self) -> float:
        """Achieved throughput (the paper's y-axis), excluding sched time."""
        if self.makespan <= 0:
            return 0.0
        return self.total_flops / self.makespan / 1e9

    @property
    def gflops_with_scheduling(self) -> float:
        """Throughput with the *static* scheduling phase charged.

        Mirrors the paper's "with scheduling/partitioning time" curves
        (Figs 3, 6, 8): mHFP's packing and hMETIS's partitioning happen
        before any task runs and delay the whole execution.  Per-decision
        costs of the dynamic schedulers are NOT added here — they are
        modelled *inside* the simulation (operation counts gate task
        starts; see ``virtual_decision_time``), so ``makespan`` already
        contains them.
        """
        total = self.makespan + self.prepare_time
        if total <= 0:
            return 0.0
        return self.total_flops / total / 1e9

    @property
    def max_tasks_per_gpu(self) -> int:
        """Objective 1 achieved by the run."""
        return max((g.n_tasks for g in self.gpus), default=0)

    def balance_ratio(self) -> float:
        """``max_k nb_k / mean nb_k`` — 1.0 is perfect balance."""
        counts = [g.n_tasks for g in self.gpus]
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean else 0.0

    def utilization(self, k: int) -> float:
        """Fraction of the makespan GPU ``k`` spent computing."""
        return self.gpus[k].busy_time / self.makespan if self.makespan else 0.0

    def summary(self) -> str:
        lines = [
            f"scheduler={self.scheduler} gpus={self.n_gpus}",
            f"  makespan      {self.makespan * 1e3:10.3f} ms",
            f"  throughput    {self.gflops:10.1f} GFlop/s"
            f" ({self.gflops_with_scheduling:.1f} with sched time)",
            f"  transfers     {self.total_mb:10.1f} MB"
            f" in {self.total_loads} loads, {self.total_evictions} evictions",
        ]
        for k, g in enumerate(self.gpus):
            lines.append(
                f"  gpu{k}: {g.n_tasks} tasks, {g.n_loads} loads, "
                f"util {self.utilization(k) * 100:.0f}%"
            )
        return "\n".join(lines)
