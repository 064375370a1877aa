"""DARTS — Data-Aware Reactive Task Scheduling (paper Algorithm 5).

Fully dynamic strategy that considers *data movement before task
allocation*.  When GPU ``k`` asks for work and its reservation list
``plannedTasks_k`` is empty, DARTS scans ``dataNotInMem_k`` for the datum
``D`` that, if loaded, unlocks the most **free tasks** — tasks whose
other inputs are all already on the GPU.  All those tasks are reserved
for the GPU; the datum with the highest remaining use count wins ties
(broken randomly so different GPUs rarely chase the same data).

If no single datum unlocks a task (e.g. at start-up when every task needs
two absent inputs), the base algorithm picks a random unprocessed task;
the **3inputs** variant instead looks for a datum unlocking tasks at one
*additional* load's distance — decisive for the 3D matmul and Cholesky
scenarios with ≥ 3 inputs per task.

Variants controlling scheduling cost (paper §V-E/F):

* **OPTI** — stop the scan at the first datum unlocking ≥ 1 task;
* **threshold** — scan at most ``threshold`` candidate data per refill.

Eviction coupling (Algorithm 6, line 8): when the LUF policy — or any
other — evicts ``V`` from GPU ``k``, planned tasks depending on ``V`` are
un-reserved (returned to the common pool) and ``V`` returns to
``dataNotInMem_k``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections import deque
from itertools import islice
from typing import (
    Deque,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.schedulers.base import Scheduler


#: one GPU's ``(_miss_count, _miss_sum, _free_by_datum, _two_missing)``
_Rows = Tuple["array[int]", "array[int]", Dict[int, Set[int]], Optional[bytearray]]


def _unindex(idx: Dict[int, Set[int]], d: int, t: int) -> None:
    """Drop ``t`` from ``idx[d]``; an emptied entry is deleted, so the
    index's keys are exactly the data that unlock a free task."""
    s = idx.get(d)
    if s is not None:
        s.discard(t)
        if not s:
            del idx[d]


class Darts(Scheduler):
    """Algorithm 5, with the paper's variants as constructor flags."""

    def __init__(
        self,
        three_inputs: bool = False,
        opti: bool = False,
        threshold: Optional[int] = None,
        threshold_activation_ratio: float = 1.75,
    ) -> None:
        super().__init__()
        if threshold is not None and threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.three_inputs = three_inputs
        self.opti = opti
        self.threshold = threshold
        #: the paper enables the threshold "for working sets larger than
        #: 3 500 MB only" on a 4×500 MB node — i.e. beyond 1.75× the
        #: cumulated GPU memory; we keep that rule scale-free.
        self.threshold_activation_ratio = threshold_activation_ratio
        self.name = "DARTS"
        if opti:
            self.name += "+OPTI"
        if three_inputs:
            self.name += "-3inputs"
        if threshold is not None:
            self.name += "+threshold"

    # ------------------------------------------------------------------
    def prepare(self, view) -> None:
        super().prepare(view)
        graph = view.graph
        self._rng = view.rng
        #: tasks not yet reserved by any GPU nor executed
        self._unowned: Set[int] = set(range(graph.n_tasks))
        #: remaining unprocessed tasks using each datum (tie-break metric)
        self._remaining_users: List[int] = [
            graph.degree(d) for d in range(graph.n_data)
        ]
        self._planned: List[Deque[int]] = [
            deque() for _ in range(view.n_gpus)
        ]
        self._data_not_in_mem: List[Set[int]] = [
            set(range(graph.n_data)) for _ in range(view.n_gpus)
        ]
        #: GPUs lost to injected device failures (never refilled again)
        self._dead_gpus: Set[int] = set()
        total_memory = sum(g.memory_bytes for g in view.platform.gpus)
        self._threshold_active = (
            self.threshold is not None
            and graph.working_set_bytes
            > self.threshold_activation_ratio * total_memory
        )
        #: the scan order of OPTI and the threshold: every datum's
        #: ``(-remaining_users, id)`` key, kept sorted by ``task_done``
        #: (only for OPTI or while the threshold is active)
        self._scan_order: Optional[List[Tuple[int, int]]] = (
            sorted((-r, d) for d, r in enumerate(self._remaining_users))
            if self.opti or self._threshold_active
            else None
        )
        self._build_index()
        #: per GPU, ``Σ _n_users[d]`` over ``_data_not_in_mem[g]``: the
        #: ops the full scan charges, kept at every add and discard
        #: instead of summed per refill
        self._scan_charge: List[int] = [
            sum(self._n_users) for _ in range(view.n_gpus)
        ]

    # ------------------------------------------------------------------
    # incremental free-task index
    # ------------------------------------------------------------------
    #
    # The pool is the set of unowned tasks (neither planned nor taken);
    # ``_pool[d]`` holds its members that read datum ``d``.  Per GPU
    # ``g`` and pool task ``t``:
    #   _miss_count[g][t]  — number of t's inputs not in held(g);
    #   _miss_sum[g][t]    — sum of those input ids (when the count is 1
    #                        this identifies the single missing datum);
    #                        both are ``array`` rows (two and eight
    #                        bytes a task), not lists of int objects;
    #   _free_by_datum[g]  — datum d → set of pool tasks whose only
    #                        missing input on g is d;
    #   _two_missing[g][t] — (3inputs only) 1 iff t is in the pool and
    #                        missing exactly two inputs on g; a flag
    #                        array rather than a set, because it holds
    #                        up to every task per GPU (one byte each,
    #                        where a set costs tens), and
    #                        ``bytearray.find(1, t + 1)`` jumps to the
    #                        next member in id order at C speed.
    # Every held-set transition (``on_fetch_issued``, which fires for
    # fetches and output allocations alike, and ``on_data_evicted``)
    # visits only ``_pool[d]``: the counts of owned tasks go stale, and
    # a task returning to the pool (``_return_to_pool``) is recounted
    # from the held sets.  An emptied ``_free_by_datum`` entry is
    # deleted.  ``n(D)``, the number of free tasks a datum unlocks, is
    # ``len(_free_by_datum[g][D])``, so ``_refill`` visits only the data
    # that unlock a free task (the index's keys) instead of every datum
    # of ``dataNotInMem``, OPTI stops at the first datum of
    # ``_scan_order`` keying an entry, and the 3inputs fallback visits
    # only the tasks two loads away instead of every unowned one.
    # Dependency release is filtered at query time (``is_released``
    # flips as tasks finish, without any per-datum event).
    # ``_n_users[d]`` is ``len(users_of(d))``, the ops a scan charges per
    # datum visited, and ``_scan_charge[g]`` their sum over
    # ``_data_not_in_mem[g]``.  No decision depends on the iteration
    # order of these sets and dicts: ``_select_candidate`` sorts ties and
    # ``_refill`` reserves in ``users_of`` order.  ``check_index``
    # asserts equality with a fresh rescan.
    def _build_index(self) -> None:
        view = self.view
        graph = view.graph
        # no pool of a datum no task reads (an output only) ever
        # changes, so all of them share one empty dict
        no_users: Dict[int, None] = {}
        self._pool: List[Dict[int, None]] = [
            dict.fromkeys(users) if users else no_users
            for users in map(graph.users_of, range(graph.n_data))
        ]
        self._n_users = [len(p) for p in self._pool]
        self._miss_count: List["array[int]"] = []
        self._miss_sum: List["array[int]"] = []
        self._free_by_datum: List[Dict[int, Set[int]]] = []
        self._two_missing: List[bytearray] = []
        # the rows depend on the held set alone, and at prepare every
        # GPU usually holds nothing: count once per distinct held set,
        # then give each GPU its own copy
        rows: Dict[FrozenSet[int], _Rows] = {}
        for g in range(view.n_gpus):
            held = frozenset(view.held(g))
            if held not in rows:
                rows[held] = self._count_missing(held)
            mc, ms, idx, two = rows[held]
            self._miss_count.append(mc[:])
            self._miss_sum.append(ms[:])
            self._free_by_datum.append({d: set(s) for d, s in idx.items()})
            if two is not None:
                self._two_missing.append(two[:])

    def _count_missing(self, held: FrozenSet[int]) -> _Rows:
        """The index rows of a GPU holding ``held`` with every task in
        the pool: ``(miss_count, miss_sum, free_by_datum, two_missing)``."""
        graph = self.view.graph
        mc = array("H")
        ms = array("q")
        idx: Dict[int, Set[int]] = {}
        two = bytearray(graph.n_tasks) if self.three_inputs else None
        for t in range(graph.n_tasks):
            missing = [x for x in graph.inputs_of(t) if x not in held]
            k = len(missing)
            mc.append(k)
            ms.append(sum(missing))
            if k == 1:
                idx.setdefault(missing[0], set()).add(t)
            elif k == 2 and two is not None:
                two[t] = 1
        return mc, ms, idx, two

    def _leave_pool(self, t: int) -> None:
        """``t`` leaves the unowned pool (planned or taken)."""
        self._unowned.discard(t)
        pool = self._pool
        for d in self.view.graph.inputs_of(t):
            del pool[d][t]
        for g in range(self.view.n_gpus):
            count = self._miss_count[g][t]
            if count == 1:
                _unindex(self._free_by_datum[g], self._miss_sum[g][t], t)
            elif count == 2 and self.three_inputs:
                self._two_missing[g][t] = 0

    def _return_to_pool(self, t: int) -> None:
        """``t`` returns to the unowned pool (un-reserved on eviction or
        on a device loss).  Its counts went stale while it was owned, so
        they are recounted from each live GPU's held set."""
        view = self.view
        self._unowned.add(t)
        pool = self._pool
        for d in view.graph.inputs_of(t):
            pool[d][t] = None
        for g in range(view.n_gpus):
            if g in self._dead_gpus:
                continue
            missing = view.missing_inputs(g, t)
            count = len(missing)
            self._miss_count[g][t] = count
            self._miss_sum[g][t] = sum(missing)
            if count == 1:
                self._free_by_datum[g].setdefault(missing[0], set()).add(t)
            elif count == 2 and self.three_inputs:
                self._two_missing[g][t] = 1

    def check_index(self) -> None:
        """Assert the index equals a from-scratch recomputation (tests)."""
        view = self.view
        graph = view.graph
        unowned = self._unowned
        for d in range(graph.n_data):
            expected = {t for t in graph.users_of(d) if t in unowned}
            assert self._pool[d].keys() == expected, (
                f"datum{d}: pool {sorted(self._pool[d])} != {sorted(expected)}"
            )
        for g in range(view.n_gpus):
            if g in self._dead_gpus:
                continue  # wiped memory makes the dead GPU's rows stale
            held = view.held(g)
            idx: Dict[int, Set[int]] = {}
            two = bytearray(graph.n_tasks)
            for t in unowned:
                missing = [x for x in graph.inputs_of(t) if x not in held]
                assert self._miss_count[g][t] == len(missing), (
                    f"gpu{g} task{t}: miss_count "
                    f"{self._miss_count[g][t]} != {len(missing)}"
                )
                assert self._miss_sum[g][t] == sum(missing), (
                    f"gpu{g} task{t}: miss_sum "
                    f"{self._miss_sum[g][t]} != {sum(missing)}"
                )
                if len(missing) == 1:
                    idx.setdefault(missing[0], set()).add(t)
                elif len(missing) == 2:
                    two[t] = 1
            live = self._free_by_datum[g]  # emptied entries are deleted
            assert live == idx, f"gpu{g}: free_by_datum {live} != {idx}"
            if self.three_inputs:
                assert self._two_missing[g] == two, (
                    f"gpu{g}: two_missing "
                    f"{[t for t, f in enumerate(self._two_missing[g]) if f]}"
                    f" != {[t for t, f in enumerate(two) if f]}"
                )
            charge = sum(self._n_users[d] for d in self._data_not_in_mem[g])
            assert self._scan_charge[g] == charge, (
                f"gpu{g}: scan_charge {self._scan_charge[g]} != {charge}"
            )
        if self._scan_order is not None:
            ru = self._remaining_users
            assert self._scan_order == sorted(
                (-ru[d], d) for d in range(graph.n_data)
            ), "scan order != sorted (-remaining_users, id)"

    # ------------------------------------------------------------------
    # Algorithm 5
    # ------------------------------------------------------------------
    def next_task(self, gpu: int) -> Optional[int]:
        planned = self._planned[gpu]
        if planned:
            self.charge_ops(1)
            return planned.popleft()
        if not self._unowned:
            return None
        return self._refill(gpu)

    def _refill(self, gpu: int) -> Optional[int]:
        graph = self.view.graph
        inmem = self.view.held(gpu)
        planned = self._planned[gpu]
        order = self._scan_order
        deps = self.view.has_dependencies
        released = self.view.is_released
        not_in_mem = self._data_not_in_mem[gpu]
        idx = self._free_by_datum[gpu]

        # Purge stale entries once.  A datum of dataNotInMem that is
        # held would be skipped, uncharged, by every later scan, and
        # on_data_evicted re-adds it the moment it leaves the held
        # set.  The only other way a held set shrinks is
        # DeviceMemory.fail(), and a dead GPU is never refilled.
        stale = not_in_mem & inmem
        if stale:
            not_in_mem -= stale
            self._scan_charge[gpu] -= sum(map(self._n_users.__getitem__, stale))
        if order is None or (
            not self._threshold_active and not_in_mem.isdisjoint(idx)
        ):
            # The full scan visits every datum of ``not_in_mem``,
            # charging ``len(users_of(d))`` each, and so does OPTI when
            # none of them keys an index entry.  Only such data can have
            # ``n(D) > 0``; candidate order is irrelevant, since
            # ``_select_candidate`` sorts.
            self.charge_ops(self._scan_charge[gpu])
            n_free: Dict[int, int] = {}
            for d, s in idx.items():
                if d in not_in_mem:
                    n_d = sum(map(released, s)) if deps else len(s)
                    if n_d:
                        n_free[d] = n_d
            n_max = max(n_free.values(), default=0)
            candidates = [d for d, n_d in n_free.items() if n_d == n_max]
        else:
            # OPTI and the threshold visit the data with the most
            # remaining unprocessed users first (ids break ties), so an
            # early hit is usually a good one: ``dataNotInMem`` in the
            # maintained ``(-remaining_users, id)`` order, i.e.
            # ``sorted(not_in_mem, key=...)``, cut to its first
            # ``threshold`` data while the threshold is active.  OPTI
            # stops at its first hit.
            n_users = self._n_users
            limit = self.threshold if self._threshold_active else None
            n_max, candidates, ops = 0, [], 0
            for d in islice((d for _, d in order if d in not_in_mem), limit):
                ops += n_users[d]
                s = idx.get(d, ())
                n_d = sum(map(released, s)) if deps else len(s)
                if n_d > n_max:
                    n_max = n_d
                    candidates = [d]
                    if self.opti:
                        break
                elif n_d == n_max and n_d > 0:
                    candidates.append(d)
            self.charge_ops(ops)

        if n_max > 0:
            d_opt = self._select_candidate(candidates)
            self.charge_ops(len(graph.users_of(d_opt)))
            s = idx[d_opt]
            # users_of order: the order Algorithm 5 reserves them in
            free = [
                t
                for t in graph.users_of(d_opt)
                if t in s and (not deps or released(t))
            ]
            for t in free:
                self._leave_pool(t)
                planned.append(t)
            self._discard_missing(gpu, d_opt)
            return planned.popleft()

        # No datum unlocks a task with a single load.
        if self.three_inputs:
            self.charge_ops(len(self._unowned))
            task = self._best_two_load_task(gpu, inmem)
            if task is not None:
                self._take(gpu, task)
                return task
        self.charge_ops(1)
        task = self._random_unowned()
        if task is None:
            return None
        self._take(gpu, task)
        return task

    def _select_candidate(self, candidates: List[int]) -> int:
        """Among equally-unlocking data, prefer the most used overall."""
        if len(candidates) == 1:
            return candidates[0]
        best = max(self._remaining_users[d] for d in candidates)
        top = sorted(d for d in candidates if self._remaining_users[d] == best)
        return top[0] if len(top) == 1 else self._rng.choice(top)

    def _best_two_load_task(
        self, gpu: int, inmem: Set[int]
    ) -> Optional[int]:
        """The 3inputs variant's fallback: tasks two loads away.

        Find the datum ``D`` maximising the number of unowned tasks that
        need ``D`` plus exactly one other absent datum; return one such
        task (so both its missing inputs get loaded).  The flagged tasks
        of ``_two_missing`` are exactly those, visited in id order.
        """
        inputs_of = self.view.graph.inputs_of
        released = self.view.is_released
        two = self._two_missing[gpu]
        score: Dict[int, int] = {}
        task_for: Dict[int, int] = {}
        t = two.find(1)
        while t >= 0:
            if released(t):
                for d in inputs_of(t):
                    if d not in inmem:
                        score[d] = score.get(d, 0) + 1
                        task_for.setdefault(d, t)
            t = two.find(1, t + 1)
        if not score:
            return None
        best = max(score.values())
        top = sorted(d for d, s in score.items() if s == best)
        d = top[0] if len(top) == 1 else self._rng.choice(top)
        return task_for[d]

    def _random_unowned(self) -> Optional[int]:
        if self.view.has_dependencies:
            pool = sorted(filter(self.view.is_released, self._unowned))
        else:
            pool = sorted(self._unowned)
        if not pool:
            return None
        return self._rng.choice(pool)

    def _take(self, gpu: int, task: int) -> None:
        """Direct allocation (Algorithm 5 line 13)."""
        self._leave_pool(task)
        for d in self.view.graph.inputs_of(task):
            self._discard_missing(gpu, d)

    def _discard_missing(self, gpu: int, d: int) -> None:
        """Drop ``d`` from ``dataNotInMem_gpu``, keeping its charge."""
        not_in_mem = self._data_not_in_mem[gpu]
        if d in not_in_mem:
            not_in_mem.remove(d)
            self._scan_charge[gpu] -= self._n_users[d]

    # ------------------------------------------------------------------
    # notifications
    # ------------------------------------------------------------------
    def task_done(self, gpu: int, task_id: int) -> None:
        ru = self._remaining_users
        order = self._scan_order
        for d in self.view.graph.inputs_of(task_id):
            if order is not None:
                key = -ru[d]
                del order[bisect_left(order, (key, d))]
                insort(order, (key + 1, d))
            ru[d] -= 1

    def on_data_loaded(self, gpu: int, data_id: int) -> None:
        self._discard_missing(gpu, data_id)

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        """``data_id`` joins ``gpu``'s held-set: one less missing input
        for each of its pool users there."""
        mc = self._miss_count[gpu]
        ms = self._miss_sum[gpu]
        idx = self._free_by_datum[gpu]
        two = self._two_missing[gpu] if self.three_inputs else None
        for t in self._pool[data_id]:
            old = mc[t]
            mc[t] = old - 1
            ms[t] -= data_id
            if old == 1:
                _unindex(idx, data_id, t)
            elif old == 2:
                idx.setdefault(ms[t], set()).add(t)
                if two is not None:
                    two[t] = 0
            elif old == 3 and two is not None:
                two[t] = 1

    def on_device_lost(self, gpu: int, requeued: Sequence[int]) -> None:
        """Return the dead GPU's reservations to the common pool.

        Both the runtime-pulled ``requeued`` tasks and this scheduler's
        own ``plannedTasks`` reservations for ``gpu`` become unowned
        again, re-entering the free-task index so surviving GPUs pick
        them up on their next refill.  The dead GPU's per-GPU index rows
        are left frozen — they are never queried again (``next_task`` is
        never called for a dead GPU; ``check_index`` skips it).
        """
        self._dead_gpus.add(gpu)
        for t in (*requeued, *self._planned[gpu]):
            self._return_to_pool(t)
        self._planned[gpu].clear()

    def on_data_evicted(self, gpu: int, data_id: int) -> None:
        """Algorithm 6 line 8: un-reserve planned tasks needing the victim."""
        not_in_mem = self._data_not_in_mem[gpu]
        if data_id not in not_in_mem:
            not_in_mem.add(data_id)
            self._scan_charge[gpu] += self._n_users[data_id]
        graph = self.view.graph
        mc = self._miss_count[gpu]
        ms = self._miss_sum[gpu]
        idx = self._free_by_datum[gpu]
        two = self._two_missing[gpu] if self.three_inputs else None
        for t in self._pool[data_id]:
            old = mc[t]
            mc[t] = old + 1
            ms[t] += data_id
            if old == 0:
                idx.setdefault(data_id, set()).add(t)
            elif old == 1:
                _unindex(idx, ms[t] - data_id, t)
                if two is not None:
                    two[t] = 1
            elif old == 2 and two is not None:
                two[t] = 0
        planned = self._planned[gpu]
        if not planned:
            return
        self.charge_ops(len(planned))
        keep: List[int] = []
        for t in planned:
            if data_id in graph.inputs_of(t):
                self._return_to_pool(t)
            else:
                keep.append(t)
        if len(keep) != len(planned):
            planned.clear()
            planned.extend(keep)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def planned_tasks(self, gpu: int) -> Sequence[int]:
        return tuple(self._planned[gpu])
