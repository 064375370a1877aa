"""DMDA and DMDAR — StarPU's Deque Model Data Aware scheduler.

Algorithm 1 of the paper: tasks are allocated, in submission order, to
the GPU minimising the predicted completion time

    ``C_k(T_i) = Σ_{D_j ∈ D(T_i), D_j ∉ InMem(k)} comm_k(D_j) + comp_k(T_i)``

added to the GPU's estimated availability.  ``InMem(k)`` tracks the data
the allocation phase has already planned onto GPU ``k`` (the prediction
does not model evictions, exactly like StarPU's performance-model-based
allocation).

DMDA pops each GPU's list in order.  DMDAR additionally applies the
Ready strategy (Algorithm 2) at runtime: within its local queue, a GPU
always starts the task whose inputs need the fewest bytes transferred
given current memory content.  Neither steals.  Both run on
:class:`repro.schedulers.ready.ListScheduler`; this module holds only
the allocation phase.
"""

from __future__ import annotations

from typing import List, Set

from repro.schedulers.ready import ListScheduler


class Dmda(ListScheduler):
    """Deque Model Data Aware (no runtime reordering)."""

    name = "DMDA"
    use_ready = False

    def allocate(self, view) -> List[List[int]]:
        graph = view.graph
        k_gpus = view.n_gpus
        bandwidth = view.bus_bandwidth()
        sizes = [d.size for d in graph.data]

        avail = [0.0] * k_gpus
        inmem: List[Set[int]] = [set() for _ in range(k_gpus)]
        lists: List[List[int]] = [[] for _ in range(k_gpus)]

        for task in graph.tasks:
            best_k = 0
            best_c = float("inf")
            comp = [
                task.flops / (view.gpu_gflops(k) * 1e9) for k in range(k_gpus)
            ]
            for k in range(k_gpus):
                comm = sum(
                    sizes[d] / bandwidth
                    for d in task.inputs
                    if d not in inmem[k]
                )
                c = avail[k] + comm + comp[k]
                if c < best_c:
                    best_c, best_k = c, k
            avail[best_k] = best_c
            inmem[best_k].update(task.inputs)
            lists[best_k].append(task.id)
        return lists


class Dmdar(Dmda):
    """DMDA with the Ready reordering strategy (the paper's main rival)."""

    name = "DMDAR"
    use_ready = True
