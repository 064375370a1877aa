"""Frozen per-decision runtime loops, kept as test oracles.

``poke_all_oracle`` is a verbatim copy of
``repro.simulator.kernel.RuntimeKernel._poke_all`` from before it
skipped the GPUs whose poke provably does nothing: every completion and
write-back pokes every GPU, in id order.  ``admit_oracle`` is
``repro.simulator.prefetch.Prefetcher.admit`` from before each GPU kept
its admission footprint: every decision rebuilds the union of the
executing and buffered tasks' data.  ``test_runtime_equivalence``
asserts the shipped versions decide the same.  Nothing under ``src``
imports this module.
"""

from __future__ import annotations

from typing import Set

from repro.simulator.memory import MemoryFullError


def poke_all_oracle(kernel) -> None:
    for k in range(kernel.platform.n_gpus):
        kernel._poke(k)


def admit_oracle(kernel, gpu: int, task: int) -> bool:
    """Admission control: buffered footprints must fit in memory."""
    k = kernel
    w = k.workers[gpu]
    active = list(w.buffer)
    if w.executing is not None:
        active.append(w.executing)
    tk = k.graph.tasks[task]
    footprint: Set[int] = set(tk.inputs) | set(tk.outputs)
    for t in active:
        other = k.graph.tasks[t]
        footprint.update(other.inputs)
        footprint.update(other.outputs)
    need = sum(k.sizes[d] for d in footprint)
    if need <= k.memories[gpu].capacity:
        return True
    if not active:
        raise MemoryFullError(
            f"task {task} alone needs {need:.0f}B on GPU {gpu} "
            f"(capacity {k.memories[gpu].capacity:.0f}B)"
        )
    return False
