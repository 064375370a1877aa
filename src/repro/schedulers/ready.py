"""The Ready reordering heuristic (paper Algorithm 2).

Given a list of tasks already allocated to a GPU, repeatedly start the
task *requiring the fewest data transfers* given what the GPU memory
currently holds (resident or already being fetched).  Shared by DMDAR,
hMETIS+R and mHFP.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.runtime import RuntimeView


class ReadyLists:
    """Per-GPU task lists with Ready-order popping.

    ``last_scanned`` exposes how many queue entries the latest
    :meth:`pop_ready` examined, so schedulers can charge decision
    operations to the runtime's virtual scheduler clock.

    :meth:`enable_incremental` switches :meth:`pop_ready` from a fresh
    ``missing_bytes`` sum per (scan, task) to a per-GPU cached array
    updated on the owner scheduler's ``on_fetch_issued`` /
    ``on_data_evicted`` hooks.  The cache is only enabled when the
    values are provably bit-equal to the fresh sums: integer-valued
    sizes (float adds/subtracts of integers far below 2**53 are exact
    in any order).  ``check_incremental`` asserts equality with a
    recomputation (property tests).
    """

    def __init__(self, n_gpus: int) -> None:
        self.lists: List[List[int]] = [[] for _ in range(n_gpus)]
        self.last_scanned = 0
        #: per-GPU missing-bytes per task; None → fresh sums
        self._mb: Optional[List[List[float]]] = None
        self._graph = None
        self._sizes: List[float] = []
        #: GPUs removed from the device set by :meth:`drop_gpu`
        self._dead: Set[int] = set()

    def enable_incremental(self, view: "RuntimeView") -> bool:
        """Build the missing-bytes cache; False when ineligible."""
        graph = view.graph
        sizes = [d.size for d in graph.data]
        if any(s != int(s) for s in sizes):
            return False  # exactness not guaranteed for fractional sizes
        self._graph = graph
        self._sizes = sizes
        self._mb = []
        for g in range(len(self.lists)):
            held = view.held(g)
            self._mb.append(
                [
                    sum(sizes[d] for d in graph.inputs_of(t) if d not in held)
                    for t in range(graph.n_tasks)
                ]
            )
        return True

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        if self._mb is None:
            return
        mb = self._mb[gpu]
        sz = self._sizes[data_id]
        for t in self._graph.users_of(data_id):
            mb[t] -= sz

    def on_data_evicted(self, gpu: int, data_id: int) -> None:
        if self._mb is None:
            return
        mb = self._mb[gpu]
        sz = self._sizes[data_id]
        for t in self._graph.users_of(data_id):
            mb[t] += sz

    def drop_gpu(self, gpu: int, requeued: Iterable[int]) -> None:
        """Remove ``gpu`` from the device set, redistributing its tasks.

        ``requeued`` (the tasks the runtime pulled back from the dead
        GPU's buffer) plus whatever was still allocated to it are handed
        to the surviving lists, each orphan going to the currently
        shortest list (ties to the lowest GPU index — deterministic).
        The dead GPU's list is left empty so ``steal_half`` never picks
        it as a victim and ``pop_*`` never returns work for it.
        """
        self._dead.add(gpu)
        orphans = list(requeued) + self.lists[gpu]
        self.lists[gpu] = []
        alive = [
            g for g in range(len(self.lists)) if g not in self._dead
        ]
        if not alive:
            raise RuntimeError("drop_gpu removed the last surviving GPU")
        for task in orphans:
            target = min(alive, key=lambda g: (len(self.lists[g]), g))
            self.lists[target].append(task)

    def check_incremental(self, view: "RuntimeView") -> None:
        """Assert the cache equals fresh ``missing_bytes`` (tests)."""
        if self._mb is None:
            return
        for g in range(len(self.lists)):
            if g in self._dead:
                continue  # wiped memory makes the cached rows stale
            for t in range(self._graph.n_tasks):
                fresh = view.missing_bytes(g, t)
                assert self._mb[g][t] == fresh, (
                    f"gpu{g} task{t}: cached {self._mb[g][t]} != {fresh}"
                )

    def assign(self, gpu: int, tasks) -> None:
        self.lists[gpu].extend(tasks)

    def remaining(self, gpu: int) -> List[int]:
        return self.lists[gpu]

    def total_remaining(self) -> int:
        return sum(len(l) for l in self.lists)

    def pop_ready(self, gpu: int, view: "RuntimeView") -> Optional[int]:
        """Remove and return the task with the fewest missing bytes.

        Ties go to list position, preserving the allocation order the
        partitioning/packing phase chose.  Tasks whose dependencies have
        not completed yet are skipped; returns ``None`` when no task in
        the list is released (the list may still be non-empty).
        """
        lst = self.lists[gpu]
        self.last_scanned = 0
        best_pos = -1
        best_missing = float("inf")
        mb = self._mb[gpu] if self._mb is not None else None
        for pos, task in enumerate(lst):
            self.last_scanned += 1
            if not view.is_released(task):
                continue
            missing = mb[task] if mb is not None else view.missing_bytes(gpu, task)
            if missing < best_missing:
                best_pos, best_missing = pos, missing
                if missing == 0:
                    break
        if best_pos < 0:
            return None
        return lst.pop(best_pos)

    def pop_fifo(self, gpu: int, view: Optional["RuntimeView"] = None) -> Optional[int]:
        """Head pop (DMDA without Ready): first *released* task."""
        lst = self.lists[gpu]
        if view is None or not view.has_dependencies:
            return lst.pop(0) if lst else None
        for pos, task in enumerate(lst):
            if view.is_released(task):
                return lst.pop(pos)
        return None

    def steal_half(self, thief: int) -> bool:
        """Task stealing used by hMETIS+R and mHFP (paper §IV-B).

        The idle GPU takes half of the remaining tasks of the most loaded
        GPU, from the tail of its list (the paper observed more slack for
        communication near the end of a package).  Returns True if any
        task moved.
        """
        victims = [
            (len(lst), k)
            for k, lst in enumerate(self.lists)
            if k != thief and lst
        ]
        if not victims:
            return False
        load, victim = max(victims, key=lambda lv: (lv[0], -lv[1]))
        take = max(1, load // 2)
        moved = self.lists[victim][-take:]
        del self.lists[victim][-take:]
        self.lists[thief].extend(moved)
        return True
