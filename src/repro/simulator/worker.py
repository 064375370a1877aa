"""Per-GPU worker: task-buffer state and the execution state machine.

Each GPU runs one :class:`Worker` holding a :class:`WorkerState` — the
bounded task buffer (the paper's ``taskBuffer_k``), the currently
executing task, a task staged by admission control, and the decision
gate bookkeeping.  The worker starts the head task once all its inputs
are resident (pinning them for the duration), completes it, hands
outputs to the write-back channel, and notifies the scheduler.  When
the head task waits on inputs, the worker stamps it with its memory's
load and eviction counts; while the stamp still matches, the kernel's
``_poke_all`` knows a poke of a full buffer would change nothing.

Workers publish :class:`~repro.simulator.events.TaskStarted`,
:class:`~repro.simulator.events.TaskCompleted` and
:class:`~repro.simulator.events.WriteBackStarted` on the kernel's event
stream for trace recording and invariant checking, and update their
GPU's :class:`~repro.simulator.trace.GpuStats` inline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, Optional, Tuple

from repro.simulator.engine import EventHandle
from repro.simulator.events import TaskCompleted, TaskStarted, WriteBackStarted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.kernel import RuntimeKernel


@dataclass
class WorkerState:
    """Mutable per-GPU scheduling state (exposed via ``kernel.workers``)."""

    buffer: Deque[int] = field(default_factory=deque)
    executing: Optional[int] = None
    staged: Optional[int] = None  # task held back by admission control
    exhausted: bool = False  # scheduler returned None on the last poll
    #: virtual time at which this GPU's scheduler thread is next free;
    #: decisions execute sequentially on it
    sched_free_at: float = 0.0
    #: pending wake-up for a decision-gated head task
    gate_event: Optional[EventHandle] = None
    #: completion event of the executing task — cancelled when the
    #: device fails so a dead GPU never reports a task done
    exec_event: Optional[EventHandle] = None
    #: datum → number of executing and buffered tasks reading or writing
    #: it: the union admission control checks, kept as tasks come and go
    footprint: Dict[int, int] = field(default_factory=dict)
    #: bytes of the data in ``footprint``
    footprint_bytes: float = 0.0
    #: ``(head, n_loads, n_evictions)`` taken when the head task was last
    #: found waiting on its inputs (see :meth:`Worker.try_start`)
    blocked: Optional[Tuple[int, int, int]] = None


class Worker:
    """Execution loop of one GPU: start the head task, complete it."""

    __slots__ = ("kernel", "gpu", "state")

    def __init__(
        self, kernel: "RuntimeKernel", gpu: int, state: WorkerState
    ) -> None:
        self.kernel = kernel
        self.gpu = gpu
        self.state = state

    def try_start(self) -> None:
        """Start the buffered head task if its inputs are all resident."""
        k = self.kernel
        w = self.state
        gpu = self.gpu
        if w.executing is not None or not w.buffer:
            return
        head = w.buffer[0]
        gate = k._task_gate.get(head, 0.0)
        if k.engine.now < gate:
            # The scheduling decision for this task is still "running";
            # wake up when it completes.
            if w.gate_event is None or w.gate_event.cancelled:
                w.gate_event = k.engine.schedule_at(gate, self._gate_expired)
            return
        mem = k.memories[gpu]
        inputs = k.graph.inputs_of(head)
        outputs = k.graph.outputs_of(head)
        # Taken before the re-requests, which may evict an input checked
        # earlier in the loop: only an unchanged stamp proves nothing
        # moved since this check.
        stamp = (head, mem.n_loads, mem.n_evictions)
        ready = True
        for d in inputs:
            if not mem.is_present(d):
                # Re-request anything evicted meanwhile, shielding the
                # head task's other inputs from being evicted for it.
                mem.request(d, protected=inputs)
                ready = False
        if not ready:
            w.blocked = stamp
            return
        protected = tuple(inputs) + tuple(outputs)
        for o in outputs:
            if not mem.allocate_output(o, protected=protected):
                return  # no space yet; retried on the next poke
        w.buffer.popleft()
        k._task_gate.pop(head, None)
        w.executing = head
        for d in inputs:
            mem.touch(d)
            mem.pin(d)
        if k.events.wants(TaskStarted):
            k.events.publish(
                TaskStarted(
                    time=k.engine.now,
                    gpu=gpu,
                    task=head,
                    inputs=tuple(inputs),
                )
            )
        duration = k.graph.tasks[head].flops / (
            k.platform.gpus[gpu].gflops * 1e9
        )
        slowdown = k._slowdown[gpu]
        if slowdown != 1.0:
            duration *= slowdown
        w.exec_event = k.engine.schedule(
            duration, lambda: self._on_task_done(head, duration)
        )
        # Execution frees a buffer slot: pull more work to prefetch.
        k.prefetcher.fill_buffer(gpu)

    def _gate_expired(self) -> None:
        self.state.gate_event = None
        self.kernel._poke(self.gpu)

    def _on_task_done(self, task: int, duration: float) -> None:
        k = self.kernel
        w = self.state
        gpu = self.gpu
        assert w.executing == task
        w.exec_event = None
        mem = k.memories[gpu]
        stats = k.stats[gpu]
        for d in k.graph.inputs_of(task):
            mem.unpin(d)
        # Outputs become resident data and are eagerly written back to
        # the host over the bus; they stay pinned until the store lands.
        for o in k.graph.outputs_of(task):
            mem.mark_produced(o)
            if k.events.wants(WriteBackStarted):
                k.events.publish(
                    WriteBackStarted(
                        time=k.engine.now,
                        gpu=gpu,
                        data_id=o,
                        size=k.sizes[o],
                    )
                )
            stats.bytes_stored += k.sizes[o]
            stats.n_stores += 1
            k.store_bus.submit(
                k.sizes[o],
                gpu,
                lambda oo=o: k._store_done(gpu, oo),
            )
        w.executing = None
        k.prefetcher.release(gpu, task)
        k.executed_order[gpu].append(task)
        flops = k.graph.tasks[task].flops
        if k.events.wants(TaskCompleted):
            k.events.publish(
                TaskCompleted(
                    time=k.engine.now,
                    gpu=gpu,
                    task=task,
                    duration=duration,
                    flops=flops,
                )
            )
        stats.n_tasks += 1
        stats.busy_time += duration
        stats.flops += flops
        k._remaining -= 1
        if k._remaining == 0 and k._fault_handles:
            # Nothing left to fail: cancel pending injected failures so
            # they cannot drain the heap past the true makespan.
            k._cancel_pending_faults()

        if k.dependencies is not None:
            for succ in k.dependencies.succs[task]:
                k._indegree[succ] -= 1

        k.scheduler.task_done(gpu, task)

        # Completion may unblock anyone (stealing, DARTS refills, fetches);
        # _poke_all skips only the GPUs it provably cannot unblock.
        k._poke_all()


__all__ = ["Worker", "WorkerState"]
