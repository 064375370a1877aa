"""The Ready reordering heuristic (paper Algorithm 2).

Given a list of tasks already allocated to a GPU, repeatedly start the
task *requiring the fewest data transfers* given what the GPU memory
currently holds (resident or already being fetched).  Shared by DMDAR,
hMETIS+R and mHFP.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.runtime import RuntimeView


class ReadyLists:
    """Per-GPU task lists with Ready-order popping.

    ``last_scanned`` exposes how many queue entries the linear scan of
    :meth:`pop_ready` examines, so schedulers can charge decision
    operations to the runtime's virtual scheduler clock.

    :meth:`enable_incremental` replaces that scan, which sums
    ``missing_bytes`` afresh per (scan, task), with per-GPU buckets: a
    cached missing-bytes array per GPU, updated on the owner
    scheduler's ``on_fetch_issued`` / ``on_data_evicted`` hooks, and a
    min-heap of ``(missing_bytes, seq, task)`` entries.  Every task
    entering a list takes the next ``seq`` of a global counter, and
    lists only ever append, so ``seq`` order is list order and the
    least live entry is the scan's choice.  An entry is live while its
    task is still in that list under that ``seq`` with that value.
    ``on_fetch_issued`` pushes an entry for each listed user whose value
    falls; a rise pushes nothing, since the old entry then sits below
    the value and is re-filed at the current one when it surfaces.  So
    every listed task keeps an entry at or below its value, and stale
    entries are dropped as they surface.  ``last_scanned`` is charged
    as the scan would have counted it: up to the chosen task when it
    misses nothing, otherwise the whole list.  The cache is only
    enabled when the values are provably bit-equal to the fresh sums:
    integer-valued sizes (float adds/subtracts of integers far below
    2**53 are exact in any order).  ``check_incremental`` asserts
    equality with a recomputation (property tests).
    """

    def __init__(self, n_gpus: int) -> None:
        self.lists: List[List[int]] = [[] for _ in range(n_gpus)]
        self.last_scanned = 0
        #: per-GPU missing-bytes per task; None → fresh sums
        self._mb: Optional[List[List[float]]] = None
        self._graph = None
        self._sizes: List[float] = []
        #: per-GPU heaps of (missing_bytes, seq, task), with the cache on
        self._heaps: List[List[Tuple[float, int, int]]] = []
        #: per task: seq and GPU of its list entry, -1 when in no list
        self._seq: List[int] = []
        self._where: List[int] = []
        self._next_seq = 0
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
        every = [
            sum(sizes[d] for d in graph.inputs_of(t))
            for t in range(graph.n_tasks)
        ]
        self._mb = []
        for g in range(len(self.lists)):
            mb = every[:]
            for d in sorted(view.held(g)):
                for t in graph.users_of(d):
                    mb[t] -= sizes[d]
            self._mb.append(mb)
        self._seq = [-1] * graph.n_tasks
        self._where = [-1] * graph.n_tasks
        self._heaps = [[] for _ in self.lists]
        for g, lst in enumerate(self.lists):
            tasks = lst[:]
            del lst[:]
            self._enter(g, tasks)
        return True

    def _enter(self, gpu: int, tasks: Iterable[int]) -> None:
        """Append ``tasks`` to ``gpu``'s list (with a bucket entry each
        when the cache is on)."""
        lst = self.lists[gpu]
        if self._mb is None:
            lst.extend(tasks)
            return
        mb = self._mb[gpu]
        heap = self._heaps[gpu]
        seq = self._seq
        where = self._where
        for t in tasks:
            lst.append(t)
            s = self._next_seq
            self._next_seq = s + 1
            seq[t] = s
            where[t] = gpu
            heappush(heap, (mb[t], s, t))

    def _take(self, gpu: int, pos: int) -> int:
        task = self.lists[gpu].pop(pos)
        if self._mb is not None:
            self._seq[task] = self._where[task] = -1
        return task

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        if self._mb is None:
            return
        mb = self._mb[gpu]
        sz = self._sizes[data_id]
        heap = self._heaps[gpu]
        seq = self._seq
        where = self._where
        for t in self._graph.users_of(data_id):
            v = mb[t] - sz
            mb[t] = v
            if where[t] == gpu:
                heappush(heap, (v, seq[t], t))

    def on_data_evicted(self, gpu: int, data_id: int) -> None:
        # a rise needs no entry: the task's old one now underestimates
        # it, and _pop_bucketed re-files it when it surfaces
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
        if self._mb is not None:
            self._heaps[gpu] = []
        alive = [
            g for g in range(len(self.lists)) if g not in self._dead
        ]
        if not alive:
            raise RuntimeError("drop_gpu removed the last surviving GPU")
        for task in orphans:
            target = min(alive, key=lambda g: (len(self.lists[g]), g))
            self._enter(target, (task,))

    def check_incremental(self, view: "RuntimeView") -> None:
        """Assert the cache equals fresh ``missing_bytes`` and every
        listed task has a bucket entry at or below its value (tests)."""
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
            lst = self.lists[g]
            seqs = [self._seq[t] for t in lst]
            assert seqs == sorted(seqs), f"gpu{g}: seq order != list order"
            assert all(self._where[t] == g for t in lst)
            lowest: Dict[int, float] = {}
            for v, s, t in self._heaps[g]:
                if self._seq[t] == s:
                    lowest[t] = min(v, lowest.get(t, v))
            assert set(lowest) == set(lst), (
                f"gpu{g}: bucketed {sorted(lowest)} != listed {sorted(lst)}"
            )
            assert all(v <= self._mb[g][t] for t, v in lowest.items()), (
                f"gpu{g}: a bucket entry lies above its task's value"
            )

    def assign(self, gpu: int, tasks) -> None:
        self._enter(gpu, tasks)

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
        if self._mb is not None:
            return self._pop_bucketed(gpu, self._mb[gpu], view)
        lst = self.lists[gpu]
        self.last_scanned = 0
        best_pos = -1
        best_missing = float("inf")
        for pos, task in enumerate(lst):
            self.last_scanned += 1
            if not view.is_released(task):
                continue
            missing = view.missing_bytes(gpu, task)
            if missing < best_missing:
                best_pos, best_missing = pos, missing
                if missing == 0:
                    break
        if best_pos < 0:
            return None
        return self._take(gpu, best_pos)

    def _pop_bucketed(
        self, gpu: int, mb: List[float], view: "RuntimeView"
    ) -> Optional[int]:
        """:meth:`pop_ready` from the buckets: same task, same charge."""
        lst = self.lists[gpu]
        heap = self._heaps[gpu]
        seq = self._seq
        if len(heap) > 2 * len(lst):
            heap[:] = [(mb[t], seq[t], t) for t in lst]
            heapify(heap)
        deps = view.has_dependencies
        released = view.is_released
        blocked: List[Tuple[float, int, int]] = []
        found: Optional[Tuple[float, int, int]] = None
        while heap:
            entry = heappop(heap)
            v, s, t = entry
            if seq[t] != s:
                continue  # dead: the task left this list entry
            cur = mb[t]
            if cur != v:
                if cur > v:  # risen since: re-file at the current value
                    heappush(heap, (cur, s, t))
                continue  # (a fall pushed a fresher entry, seen first)
            if deps and not released(t):
                blocked.append(entry)
                continue
            found = entry
            break
        for entry in blocked:
            heappush(heap, entry)
        if found is None:
            self.last_scanned = len(lst)
            return None
        v, _s, task = found
        pos = lst.index(task)
        self.last_scanned = pos + 1 if v == 0 else len(lst)
        return self._take(gpu, pos)

    def pop_fifo(self, gpu: int, view: Optional["RuntimeView"] = None) -> Optional[int]:
        """Head pop (DMDA without Ready): first *released* task."""
        lst = self.lists[gpu]
        if view is None or not view.has_dependencies:
            return self._take(gpu, 0) if lst else None
        for pos, task in enumerate(lst):
            if view.is_released(task):
                return self._take(gpu, pos)
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
        self._enter(thief, moved)
        return True
