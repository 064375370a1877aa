"""Prefetch admission control and fetch issue for the task buffer.

:class:`Prefetcher` pulls tasks from the scheduler into each GPU's
bounded task buffer (the paper's ``taskBuffer_k``) and issues the input
fetches that overlap with execution.  It owns two policies:

* **admission control** — the union of input/output footprints of the
  executing plus buffered tasks must fit in GPU memory, which is what
  guarantees the simulation can always make progress; a task that does
  not fit is *staged* and retried on the next poke.  The union is kept
  per GPU as datum counts (``WorkerState.footprint``) updated when a
  task is admitted and when it completes, so a decision sums only the
  new task's data;
* **decision-cost gating** — scheduler decisions run sequentially on a
  per-GPU virtual scheduler thread; the decided task cannot start
  before its decision completes (op-count × ``decision_op_cost``).

Each accepted decision is published as a
:class:`~repro.simulator.events.DecisionMade` event (guarded, so runs
without subscribers pay nothing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.simulator.events import DecisionMade
from repro.simulator.memory import MemoryFullError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.kernel import RuntimeKernel


class Prefetcher:
    """Fills task buffers and issues the corresponding input fetches."""

    __slots__ = ("kernel",)

    def __init__(self, kernel: "RuntimeKernel") -> None:
        self.kernel = kernel

    def fill_buffer(self, gpu: int) -> None:
        """Top up ``gpu``'s buffer to the window, issuing prefetches."""
        k = self.kernel
        w = k.workers[gpu]
        while len(w.buffer) < k.window:
            if w.staged is not None:
                task = w.staged
                w.staged = None
            else:
                task = k.scheduler.next_task(gpu)
                cost = k.scheduler.consume_ops() * k.decision_op_cost
                if cost > 0:
                    # Decisions run sequentially on the GPU's scheduler
                    # thread; the decided task cannot start before the
                    # decision completes (in virtual time).
                    start = max(w.sched_free_at, k.engine.now)
                    w.sched_free_at = start + cost
                    k._virtual_decision_time += cost
                    if task is not None:
                        k._task_gate[task] = w.sched_free_at
                if task is None:
                    w.exhausted = True
                    return
                w.exhausted = False
                if k.events.wants(DecisionMade):
                    k.events.publish(
                        DecisionMade(
                            time=k.engine.now, gpu=gpu, task=task, cost=cost
                        )
                    )
            if not self.admit(gpu, task):
                w.staged = task
                return
            is_head = not w.buffer
            w.buffer.append(task)
            inputs = k.graph.inputs_of(task)
            # The head task's inputs protect each other from eviction
            # (the paper's V(k,i) ∩ D(T_σ(k,i)) = ∅ rule); deeper
            # prefetches get no such protection.
            protected = inputs if is_head else ()
            for d in inputs:
                k.memories[gpu].request(d, protected=protected)

    def admit(self, gpu: int, task: int) -> bool:
        """Admission control: buffered footprints must fit in memory.

        The union of the executing and buffered tasks' data is kept in
        ``WorkerState.footprint``, so only ``task``'s data not already
        in it add bytes.  An admitted task joins the footprint; its
        caller buffers it.
        """
        k = self.kernel
        w = k.workers[gpu]
        tk = k.graph.tasks[task]
        data = dict.fromkeys(tk.inputs + tk.outputs)
        footprint = w.footprint
        sizes = k.sizes
        need = w.footprint_bytes + sum(
            sizes[d] for d in data if d not in footprint
        )
        if need > k.memories[gpu].capacity:
            if not footprint:
                raise MemoryFullError(
                    f"task {task} alone needs {need:.0f}B on GPU {gpu} "
                    f"(capacity {k.memories[gpu].capacity:.0f}B)"
                )
            return False
        for d in data:
            footprint[d] = footprint.get(d, 0) + 1
        w.footprint_bytes = need
        return True

    def release(self, gpu: int, task: int) -> None:
        """``task`` finished on ``gpu``: drop it from the footprint."""
        k = self.kernel
        w = k.workers[gpu]
        tk = k.graph.tasks[task]
        footprint = w.footprint
        for d in dict.fromkeys(tk.inputs + tk.outputs):
            n = footprint[d] - 1
            if n:
                footprint[d] = n
            else:
                del footprint[d]
                w.footprint_bytes -= k.sizes[d]


__all__ = ["Prefetcher"]
