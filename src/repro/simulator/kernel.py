"""Runtime kernel: lifecycle and wiring of the layered simulator.

:class:`RuntimeKernel` is the orchestrator of one simulated execution.
It owns *construction and lifecycle only* — the actual mechanics live in
the layers it wires together:

========================================  ============================
:mod:`repro.simulator.engine`             discrete-event core
:mod:`repro.simulator.bus`                shared-link contention models
:mod:`repro.simulator.routing`            transfer transport selection
:mod:`repro.simulator.memory`             per-GPU memory + eviction
:mod:`repro.simulator.prefetch`           admission + prefetch issue
:mod:`repro.simulator.worker`             per-GPU execution loop
:mod:`repro.simulator.events`             typed runtime event stream
:mod:`repro.simulator.view`               read-only scheduler surface
========================================  ============================

Every observable occurrence is published once on a single
:class:`~repro.simulator.events.EventStream`, and only observers
subscribe to it: invariant checking
(:class:`~repro.simulator.sanitizer.Sanitizer`) first, so a violation
fires before anything else processes the event, then trace recording
(:class:`~repro.simulator.trace.TraceRecorder`), then any external
subscriber.  A run with none of them allocates no event object.
Control does not ride the stream: each
:class:`~repro.simulator.memory.DeviceMemory` calls the kernel's three
:class:`~repro.simulator.memory.MemoryControl` reactions directly,
right after publishing the matching event, so observers still see every
event before control acts, and the worker updates
:class:`~repro.simulator.trace.GpuStats` inline.

Control reaches the workers through *pokes*: a poke of GPU ``k`` tops
up its task buffer and tries to start its head task.  A fetch
completion or a decision-gate expiry pokes its own GPU; a task
completion or a write-back pokes every GPU through :meth:`_poke_all`,
which skips only the GPUs whose poke provably does nothing (a full
buffer, and the GPU executing or its head still waiting on the inputs
it waited on at its last start attempt).
"""

from __future__ import annotations

import random
import time as _time
from typing import TYPE_CHECKING, Dict, List, Optional, Type, Union

from repro.core.problem import TaskGraph
from repro.platform.spec import PlatformSpec
from repro.schedulers.base import Scheduler
from repro.simulator.bus import make_bus
from repro.simulator.engine import EventHandle, SimulationEngine
from repro.simulator.events import (
    DataReplicaLost,
    DegradedMode,
    DeviceFailed,
    EventStream,
    TaskRequeued,
    WriteBackCompleted,
)
from repro.simulator.faults import FaultPlan
from repro.simulator.memory import DeviceMemory, MemoryControl
from repro.simulator.prefetch import Prefetcher
from repro.simulator.routing import RetryingRouter, Transport
from repro.simulator.sanitizer import Sanitizer, is_enabled as _sanitizer_enabled
from repro.simulator.trace import GpuStats, RunResult, TraceRecorder
from repro.simulator.view import RuntimeView
from repro.simulator.worker import Worker, WorkerState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eviction import EvictionPolicy


class SimulationDeadlock(Exception):
    """The event queue drained while tasks remained unexecuted."""


class RuntimeKernel(MemoryControl):
    """One simulated execution of ``graph`` on ``platform`` by ``scheduler``."""

    def __init__(
        self,
        graph: TaskGraph,
        platform: PlatformSpec,
        scheduler: Scheduler,
        eviction: Union[str, Type[EvictionPolicy]] = "lru",
        window: int = 2,
        seed: int = 0,
        record_trace: bool = False,
        decision_op_cost: float = 5e-8,
        dependencies: Optional[object] = None,
        sanitize: Union[None, bool, Sanitizer] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if window < 1:
            raise ValueError("task buffer window must be >= 1")
        if decision_op_cost < 0:
            raise ValueError("decision_op_cost must be >= 0")
        self.graph = graph
        self.platform = platform
        self.scheduler = scheduler
        self.window = window
        self.rng = random.Random(seed)
        # Fault plan normalisation: an empty plan is *identical* to no
        # plan — no wrapper installed, no rng built, no event scheduled —
        # which is what keeps fault-free golden digests byte-identical.
        self.faults: Optional[FaultPlan] = (
            faults if faults is not None and not faults.is_empty() else None
        )
        if self.faults is not None:
            self.faults.validate(platform.n_gpus)
            if self.faults.device_failures and graph.has_outputs:
                raise ValueError(
                    "device failures are not supported with produced "
                    "(output) data: a failure could destroy the only copy "
                    "of an output, breaking exactly-once completion"
                )
        #: per-GPU liveness; flipped by _fail_device, read by every poke
        self.dead: List[bool] = [False] * platform.n_gpus
        #: per-GPU compute slowdown factor (straggler injection)
        self._slowdown: List[float] = [1.0] * platform.n_gpus
        if self.faults is not None:
            for s in self.faults.stragglers:
                self._slowdown[s.gpu] *= s.factor
        #: engine handles of scheduled device failures (cancelled when
        #: the last task completes so they cannot extend the makespan)
        self._fault_handles: List[EventHandle] = []
        #: the one instrumentation stream every layer publishes on
        self.events = EventStream()
        # Invariant sanitizer: explicit instance > explicit bool > the
        # module-level switch (turned on for the whole test suite).
        self.sanitizer: Optional[Sanitizer]
        if isinstance(sanitize, Sanitizer):
            self.sanitizer = sanitize
        else:
            wanted = _sanitizer_enabled() if sanitize is None else sanitize
            self.sanitizer = Sanitizer() if wanted else None
        self.engine = SimulationEngine(events=self.events)
        self.bus = make_bus(self.engine, platform.bus, events=self.events)
        # PCIe is full duplex: device→host write-backs (the output
        # extension) ride their own channel and overlap with fetches —
        # the paper's "transferred concurrently with data input".
        self.store_bus = (
            make_bus(self.engine, platform.bus, events=self.events)
            if graph.has_outputs
            else None
        )
        self.fabric = None
        if platform.peer_link is not None:
            from repro.simulator.fabric import PeerFabric

            self.fabric = PeerFabric(
                self.engine,
                self.bus,
                platform.peer_link,
                platform.n_gpus,
                events=self.events,
            )
        #: transport serving input fetches: the peer fabric when
        #: configured, else the host bus itself
        self.fetch_router: Transport = (
            self.fabric if self.fabric is not None else self.bus
        )
        #: injection rng — separate from the scheduler rng so installing
        #: a plan never perturbs scheduling decisions
        self._fault_rng: Optional[random.Random] = None
        if self.faults is not None:
            self._fault_rng = random.Random(self.faults.seed)
            if self.faults.transfer_faults is not None:
                self.fetch_router = RetryingRouter(
                    inner=self.fetch_router,
                    engine=self.engine,
                    rng=self._fault_rng,
                    corruption=self.faults.transfer_faults,
                    events=self.events,
                    alive=self._is_alive,
                )
        self.sizes = [d.size for d in graph.data]
        self.trace = TraceRecorder(enabled=record_trace)
        self.view = RuntimeView(self)

        # Output-data extension: produced data are not in host memory
        # until their eager write-back completes.
        self._host_resident: List[bool] = [
            not graph.is_produced(d) for d in range(graph.n_data)
        ]

        # Eviction policies are created per GPU via repro.eviction (a
        # local import: repro.eviction imports the simulator).
        from repro.eviction import make_policy

        self.memories: List[DeviceMemory] = []
        for k, gpu in enumerate(platform.gpus):
            self.memories.append(
                DeviceMemory(
                    engine=self.engine,
                    router=self.fetch_router,
                    gpu_index=k,
                    capacity_bytes=gpu.memory_bytes,
                    data_sizes=self.sizes,
                    policy=make_policy(eviction, k, self.view, scheduler),
                    events=self.events,
                    data_available=(
                        self._is_data_available if graph.has_outputs else None
                    ),
                    control=self,
                )
            )

        if self.fabric is not None:
            self.fabric.attach(self.memories)

        self.workers: List[WorkerState] = [
            WorkerState() for _ in range(platform.n_gpus)
        ]
        self._worker_loops: List[Worker] = [
            Worker(self, k, self.workers[k]) for k in range(platform.n_gpus)
        ]
        self.prefetcher = Prefetcher(self)
        self.stats = [GpuStats() for _ in range(platform.n_gpus)]
        self.executed_order: List[List[int]] = [
            [] for _ in range(platform.n_gpus)
        ]
        self.decision_op_cost = decision_op_cost
        # Optional task dependencies (the paper's §VI extension): tasks
        # are released to schedulers once all predecessors completed.
        self.dependencies = None
        self._indegree: Optional[List[int]] = None
        if dependencies is not None:
            from repro.dag.deps import DependencySet

            if not isinstance(dependencies, DependencySet):
                dependencies = DependencySet(graph.n_tasks, dependencies)
            dependencies.validate(graph)
            self.dependencies = dependencies
            self._indegree = dependencies.indegrees()
        #: virtual start gate per popped task (decision pipeline)
        self._task_gate: Dict[int, float] = {}
        self._virtual_decision_time = 0.0
        if graph.has_outputs:
            self._validate_producer_consumer()
        self._remaining = graph.n_tasks
        self._prepare_time = 0.0
        self._finished = False
        # Workers only react to events once run() has begun; this lets
        # tests drive memories/buses directly through an idle kernel.
        self._started = False

        if self.faults is not None:
            for f in self.faults.device_failures:
                self._fault_handles.append(
                    self.engine.schedule_at(
                        f.time, lambda g=f.gpu: self._fail_device(g)
                    )
                )

        # Observer wiring.  Order matters: sanitizer checks fire before
        # the trace records an event.
        if self.sanitizer is not None:
            self.sanitizer.subscribe_to(self.events, self.memories)
        self.trace.subscribe_to(self.events)

    # ------------------------------------------------------------------
    # main entry
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        t0 = _time.perf_counter()
        self.scheduler.prepare(self.view)
        self._prepare_time = _time.perf_counter() - t0

        self._started = True
        self._poke_all()
        self.engine.run()

        if self._remaining > 0:
            self._raise_deadlock()
        for mem in self.memories:
            mem.check_invariants()
        if self.sanitizer is not None:
            self.sanitizer.after_run(self)

        result = RunResult(
            scheduler=self.scheduler.name,
            n_gpus=self.platform.n_gpus,
            makespan=self.engine.now,
            total_flops=self.graph.total_flops,
            gpus=self.stats,
            prepare_time=self._prepare_time,
            virtual_decision_time=self._virtual_decision_time,
            trace=self.trace if self.trace.enabled else None,
            trace_digest=self.trace.digest() if self.trace.enabled else None,
            executed_order=self.executed_order,
        )
        for k, mem in enumerate(self.memories):
            self.stats[k].n_loads = mem.n_loads
            self.stats[k].bytes_loaded = mem.bytes_loaded
            self.stats[k].n_evictions = mem.n_evictions
        # The buses own the traffic accounting; engine.run() drained
        # every transfer, so their counts are final.
        result.bytes_from_host = self.bus.bytes_transferred
        if self.fabric is not None:
            result.bytes_from_peer = sum(
                ch.bytes_transferred for ch in self.fabric.peer_channels
            )
        return result

    # ------------------------------------------------------------------
    # worker state machine
    # ------------------------------------------------------------------
    def _poke_all(self) -> None:
        """Poke every GPU, in id order, whose poke can do something.

        A poke of a full buffer pulls no task, so it can only start the
        head task.  It cannot while the GPU executes, nor while the head
        still waits on the inputs it waited on when ``try_start`` stamped
        it: the stamp's load and eviction counts are unchanged, so every
        input present then is present now, and every other one is still
        fetching or queued, which makes its re-request a no-op.  Such
        GPUs are skipped; the rest are poked as before.  Direct pokes
        (fetch completions, gate expiries) always run.
        """
        window = self.window
        for k, w in enumerate(self.workers):
            if len(w.buffer) >= window:
                mem = self.memories[k]
                if w.executing is not None or w.blocked == (
                    w.buffer[0],
                    mem.n_loads,
                    mem.n_evictions,
                ):
                    continue
            self._poke(k)

    def _poke(self, gpu: int) -> None:
        if self.dead[gpu]:
            return
        self.prefetcher.fill_buffer(gpu)
        self._worker_loops[gpu].try_start()

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def _is_alive(self, gpu: int) -> bool:
        return not self.dead[gpu]

    def _cancel_pending_faults(self) -> None:
        """Cancel injected failures that have not fired yet.

        Called when the last task completes: an injected failure past
        the natural makespan must not keep the event heap alive and
        stretch ``engine.now`` beyond the real finish time.
        """
        for h in self._fault_handles:
            if not h.cancelled:
                h.cancel()
        self._fault_handles.clear()

    def _fail_device(self, gpu: int) -> None:
        """Execute a planned device failure: GPU ``gpu`` is gone.

        Recovery sequence (order is part of the determinism contract):
        cancel the in-flight execution, wipe the memory (publishing one
        :class:`~repro.simulator.events.DataReplicaLost` per replica in
        datum order), requeue the running + buffered tasks through the
        scheduler's ``on_device_lost`` hook, notify surviving eviction
        policies, announce :class:`~repro.simulator.events.DegradedMode`,
        and re-poke the survivors so they pick up the requeued work.
        """
        if self.dead[gpu] or self._remaining == 0:
            return
        self.dead[gpu] = True
        w = self.workers[gpu]
        if w.exec_event is not None and not w.exec_event.cancelled:
            w.exec_event.cancel()
        w.exec_event = None
        if w.gate_event is not None and not w.gate_event.cancelled:
            w.gate_event.cancel()
        w.gate_event = None
        requeued: List[int] = []
        if w.executing is not None:
            requeued.append(w.executing)
            w.executing = None
        requeued.extend(w.buffer)
        w.buffer.clear()
        w.footprint.clear()
        w.footprint_bytes = 0.0
        if w.staged is not None:
            requeued.append(w.staged)
            w.staged = None
        w.exhausted = True
        for t in requeued:
            self._task_gate.pop(t, None)
        now = self.engine.now
        events = self.events
        if events.wants(DeviceFailed):
            events.publish(DeviceFailed(time=now, gpu=gpu))
        lost = sorted(self.memories[gpu].fail())
        if events.wants(DataReplicaLost):
            for d in lost:
                events.publish(DataReplicaLost(time=now, gpu=gpu, data_id=d))
        if self.fabric is not None:
            self.fabric.on_device_failed(gpu)
        if events.wants(TaskRequeued):
            for t in requeued:
                events.publish(TaskRequeued(time=now, gpu=gpu, task=t))
        self.scheduler.on_device_lost(gpu, tuple(requeued))
        for k, mem in enumerate(self.memories):
            if not self.dead[k]:
                mem.policy.on_device_lost(gpu)
        if events.wants(DegradedMode):
            alive = tuple(
                k for k in range(self.platform.n_gpus) if not self.dead[k]
            )
            events.publish(DegradedMode(time=now, alive=alive))
        self._poke_all()

    # ------------------------------------------------------------------
    # control reactions, called by the memories (MemoryControl)
    # ------------------------------------------------------------------
    def on_fetch_completed(self, gpu: int, data_id: int) -> None:
        if not self._started:
            return
        self.scheduler.on_data_loaded(gpu, data_id)
        self._poke(gpu)

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        if self._started:
            self.scheduler.on_fetch_issued(gpu, data_id)

    def on_evicted(self, gpu: int, data_id: int) -> None:
        if self._started:
            self.scheduler.on_data_evicted(gpu, data_id)

    # ------------------------------------------------------------------
    # output-data extension
    # ------------------------------------------------------------------
    def _validate_producer_consumer(self) -> None:
        """Consumers of produced data must depend on the producer."""
        for d in range(self.graph.n_data):
            producer = self.graph.producer_of(d)
            if producer is None:
                continue
            for user in self.graph.users_of(d):
                if self.dependencies is None or (
                    producer not in self.dependencies.preds[user]
                ):
                    raise ValueError(
                        f"task {user} reads produced datum {d} but does "
                        f"not depend on its producer {producer}; pass the "
                        "producer→consumer edges via dependencies="
                    )

    def _is_data_available(self, d: int) -> bool:
        """Can ``d`` be fetched right now (host copy or reachable peer)?"""
        if self._host_resident[d]:
            return True
        if self.fabric is not None:
            return any(mem.is_present(d) for mem in self.memories)
        return False

    def _store_done(self, gpu: int, d: int) -> None:
        self._host_resident[d] = True
        self.memories[gpu].unpin(d)
        if self.events.wants(WriteBackCompleted):
            self.events.publish(
                WriteBackCompleted(time=self.engine.now, gpu=gpu, data_id=d)
            )
        for mem in self.memories:
            mem.retry_pending()
        self._poke_all()

    # ------------------------------------------------------------------
    def _raise_deadlock(self) -> None:
        lines = [f"{self._remaining}/{self.graph.n_tasks} tasks never ran"]
        for k, w in enumerate(self.workers):
            mem = self.memories[k]
            lines.append(
                f"  gpu{k}: executing={w.executing} buffer={list(w.buffer)} "
                f"staged={w.staged} exhausted={w.exhausted} "
                f"used={mem.used:.0f}/{mem.capacity:.0f}B "
                f"fetching={sorted(mem.fetching_set())}"
            )
        raise SimulationDeadlock("\n".join(lines))


__all__ = ["RuntimeKernel", "SimulationDeadlock"]
