"""Ready reordering (paper Algorithm 2) and the list schedulers' runtime.

Given a list of tasks already allocated to a GPU, Ready repeatedly
starts the task *requiring the fewest data transfers* given what the GPU
memory currently holds (resident or already being fetched).
:class:`ListScheduler` is the runtime half of DMDA(R), hMETIS+R, mHFP
and FixedSchedule, which differ only in how they build the lists.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.schedulers.base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.runtime import RuntimeView


class ReadyLists:
    """Per-GPU task lists, popped in list order or with Ready.

    :meth:`enable_incremental` builds Ready's per-GPU buckets: a cached
    missing-bytes array, updated on the owner scheduler's
    ``on_fetch_issued`` / ``on_data_evicted`` hooks, and a min-heap of
    ``(missing_bytes, seq, task)`` entries.  Every task entering a list
    takes the next ``seq`` of a global counter, and lists only ever
    append, so ``seq`` order is list order and the least live entry is
    Ready's choice.  An entry is live while its task is still in that
    list under that ``seq`` with that value.  ``on_fetch_issued`` pushes
    an entry for each listed user whose value falls; a rise pushes
    nothing, since the old entry then sits below the value and is
    re-filed at the current one when it surfaces.  So every listed task
    keeps an entry at or below its value, and stale entries are dropped
    as they surface.  ``last_scanned`` is what Algorithm 2's in-order
    scan would have examined (up to the chosen task when it misses
    nothing, otherwise the whole list), charged as decision operations.
    Sizes are whole bytes (``TaskGraph.add_data`` enforces it), so the
    cached float sums are exact in any order; ``check_incremental``
    asserts equality with a recomputation (property tests).
    """

    def __init__(self, n_gpus: int) -> None:
        self.lists: List[List[int]] = [[] for _ in range(n_gpus)]
        self.last_scanned = 0
        #: per-GPU missing-bytes per task; None without buckets
        self._mb: Optional[List[List[float]]] = None
        self._graph = None
        self._sizes: List[float] = []
        #: per-GPU heaps of (missing_bytes, seq, task), with the buckets on
        self._heaps: List[List[Tuple[float, int, int]]] = []
        #: per task: seq and GPU of its list entry, -1 when in no list
        self._seq: List[int] = []
        self._where: List[int] = []
        self._next_seq = 0
        #: GPUs removed from the device set by :meth:`drop_gpu`
        self._dead: Set[int] = set()

    def enable_incremental(self, view: "RuntimeView") -> None:
        """Build the buckets :meth:`pop_ready` pops from (lists empty)."""
        assert not any(self.lists), "enable the buckets before assign"
        graph = view.graph
        sizes = [d.size for d in graph.data]
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

    def assign(self, gpu: int, tasks: Iterable[int]) -> None:
        """Append ``tasks`` to ``gpu``'s list (with a bucket entry each
        when the buckets are on)."""
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
        # it, and pop_ready re-files it when it surfaces
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
            self.assign(target, (task,))

    def check_incremental(self, view: "RuntimeView") -> None:
        """Assert the cache equals fresh ``missing_bytes`` and every
        listed task has a bucket entry at or below its value (tests)."""
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

    def pop_ready(self, gpu: int, view: "RuntimeView") -> Optional[int]:
        """Remove and return the task with the fewest missing bytes.

        Ties go to list position, preserving the allocation order the
        static phase chose.  Tasks whose dependencies have not completed
        yet are skipped; returns ``None`` when no task in the list is
        released (the list may still be non-empty).  Needs the buckets
        of :meth:`enable_incremental`.
        """
        mb = self._mb[gpu]
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
        """List-order pop (DMDA, FIXED): first *released* task."""
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
        self.assign(thief, moved)
        return True


class ListScheduler(Scheduler):
    """Runtime half of the list schedulers; subclasses :meth:`allocate`.

    A GPU pops from its own list, with Ready or in list order, and once
    the list is empty steals from the most loaded one if allowed.
    """

    #: pop with Ready (Algorithm 2) rather than in list order
    use_ready = True
    #: an idle GPU steals from the most loaded list (paper §IV-B)
    use_stealing = False

    def allocate(self, view: "RuntimeView") -> Sequence[Sequence[int]]:
        """Static phase: one ordered task list per GPU."""
        raise NotImplementedError

    def prepare(self, view: "RuntimeView") -> None:
        super().prepare(view)
        self._lists = ReadyLists(view.n_gpus)
        if self.use_ready:
            self._lists.enable_incremental(view)
        for k, tasks in enumerate(self.allocate(view)):
            self._lists.assign(k, tasks)

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        self._lists.on_fetch_issued(gpu, data_id)

    def on_data_evicted(self, gpu: int, data_id: int) -> None:
        self._lists.on_data_evicted(gpu, data_id)

    def on_device_lost(self, gpu: int, requeued: Sequence[int]) -> None:
        self._lists.drop_gpu(gpu, requeued)

    def next_task(self, gpu: int) -> Optional[int]:
        lists = self._lists
        while True:
            if self.use_ready:
                task = lists.pop_ready(gpu, self.view)
                self.charge_ops(lists.last_scanned)
            else:
                task = lists.pop_fifo(gpu, self.view)
                self.charge_ops(1)
            if task is not None:
                return task
            if lists.lists[gpu]:
                return None  # blocked on dependencies, not out of work
            if not (self.use_stealing and lists.steal_half(gpu)):
                return None

    def remaining_order(self, gpu: int) -> Sequence[int]:
        return tuple(self._lists.lists[gpu])

    def allocation(self) -> List[List[int]]:
        """Each GPU's list: the static allocation, until pops (tests)."""
        return [list(l) for l in self._lists.lists]
