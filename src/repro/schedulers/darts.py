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

import heapq
from collections import deque
from itertools import compress
from typing import (
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.schedulers.base import Scheduler


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
        self._executed: Set[int] = set()
        #: GPUs lost to injected device failures (never refilled again)
        self._dead_gpus: Set[int] = set()
        total_memory = sum(g.memory_bytes for g in view.platform.gpus)
        self._threshold_active = (
            self.threshold is not None
            and graph.working_set_bytes
            > self.threshold_activation_ratio * total_memory
        )
        # Incremental free-task index (see _count_free_tasks for the
        # definition it mirrors).  Gated off when the graph has outputs:
        # ALLOCATED output slots enter the held-set without any event to
        # update the index on.
        self._use_index = not graph.has_outputs
        if self._use_index:
            self._build_index()

    # ------------------------------------------------------------------
    # incremental free-task index
    # ------------------------------------------------------------------
    #
    # Per GPU ``g`` and task ``t``:
    #   _miss_count[g][t]  — number of t's inputs not in held(g);
    #   _miss_sum[g][t]    — sum of those input ids (when the count is 1
    #                        this identifies the single missing datum);
    #   _free_by_datum[g]  — datum d → set of *unowned* tasks whose only
    #                        missing input on g is d;
    #   _two_missing[g][t] — (3inputs only) 1 iff t is unowned and
    #                        missing exactly two inputs on g; a flag
    #                        array rather than a set, because it holds
    #                        up to every task per GPU and
    #                        ``compress(range(n_tasks), ...)`` lists its
    #                        members in id order at C speed.
    # Updated on fetch-issue/evict (held-set transitions) and on tasks
    # entering/leaving the unowned pool; an emptied entry is deleted.
    # ``_refill`` therefore visits only the data that unlock a free task
    # (the index's keys) instead of every datum of ``dataNotInMem``, and
    # the 3inputs fallback only the tasks two loads away instead of
    # every unowned one.  Dependency release is filtered at query time
    # (``is_released`` flips as tasks finish, without any per-datum
    # event).  ``_n_users[d]`` is ``len(users_of(d))``, the ops a scan
    # charges per datum visited.  ``check_index`` asserts equality with
    # a fresh rescan.
    def _build_index(self) -> None:
        view = self.view
        graph = view.graph
        self._n_users = [len(graph.users_of(d)) for d in range(graph.n_data)]
        self._miss_count: List[List[int]] = []
        self._miss_sum: List[List[int]] = []
        self._free_by_datum: List[Dict[int, Set[int]]] = []
        self._two_missing: List[bytearray] = []
        unowned = self._unowned
        for g in range(view.n_gpus):
            held = view.held(g)
            mc = []
            ms = []
            idx: Dict[int, Set[int]] = {}
            two = bytearray(graph.n_tasks) if self.three_inputs else None
            for t in range(graph.n_tasks):
                missing = [x for x in graph.inputs_of(t) if x not in held]
                k = len(missing)
                mc.append(k)
                ms.append(sum(missing))
                if k == 1 and t in unowned:
                    idx.setdefault(missing[0], set()).add(t)
                elif k == 2 and two is not None and t in unowned:
                    two[t] = 1
            self._miss_count.append(mc)
            self._miss_sum.append(ms)
            self._free_by_datum.append(idx)
            if two is not None:
                self._two_missing.append(two)

    def _index_remove_task(self, t: int) -> None:
        """``t`` leaves the unowned pool (planned or taken)."""
        for g in range(self.view.n_gpus):
            count = self._miss_count[g][t]
            if count == 1:
                _unindex(self._free_by_datum[g], self._miss_sum[g][t], t)
            elif count == 2 and self.three_inputs:
                self._two_missing[g][t] = 0

    def _index_add_task(self, t: int) -> None:
        """``t`` returns to the unowned pool (un-reserved on eviction)."""
        for g in range(self.view.n_gpus):
            count = self._miss_count[g][t]
            if count == 1:
                self._free_by_datum[g].setdefault(
                    self._miss_sum[g][t], set()
                ).add(t)
            elif count == 2 and self.three_inputs:
                self._two_missing[g][t] = 1

    def check_index(self) -> None:
        """Assert the index equals a from-scratch recomputation (tests)."""
        if not self._use_index:
            return
        view = self.view
        graph = view.graph
        for g in range(view.n_gpus):
            if g in self._dead_gpus:
                continue  # wiped memory makes the dead GPU's rows stale
            held = view.held(g)
            idx: Dict[int, Set[int]] = {}
            two = bytearray(graph.n_tasks)
            for t in range(graph.n_tasks):
                missing = [x for x in graph.inputs_of(t) if x not in held]
                assert self._miss_count[g][t] == len(missing), (
                    f"gpu{g} task{t}: miss_count "
                    f"{self._miss_count[g][t]} != {len(missing)}"
                )
                assert self._miss_sum[g][t] == sum(missing), (
                    f"gpu{g} task{t}: miss_sum "
                    f"{self._miss_sum[g][t]} != {sum(missing)}"
                )
                if t in self._unowned:
                    if len(missing) == 1:
                        idx.setdefault(missing[0], set()).add(t)
                    elif len(missing) == 2:
                        two[t] = 1
            live = self._free_by_datum[g]  # emptied entries are deleted
            assert live == idx, f"gpu{g}: free_by_datum {live} != {idx}"
            if self.three_inputs:
                assert self._two_missing[g] == two, (
                    f"gpu{g}: two_missing "
                    f"{list(compress(range(graph.n_tasks), self._two_missing[g]))}"
                    f" != {list(compress(range(graph.n_tasks), two))}"
                )

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
        threshold = self.threshold if self._threshold_active else None
        use_index = self._use_index
        deps = self.view.has_dependencies
        not_in_mem = self._data_not_in_mem[gpu]
        idx = self._free_by_datum[gpu] if use_index else None

        n_max = 0
        candidates: List[int] = []
        scanned = 0
        ru = self._remaining_users
        if use_index:
            # Purge stale entries once.  A datum of dataNotInMem that is
            # held would be skipped, uncharged, by every later scan, and
            # on_data_evicted re-adds it the moment it leaves the held
            # set.  The only other way a held set shrinks is
            # DeviceMemory.fail(), and a dead GPU is never refilled.
            not_in_mem -= not_in_mem & inmem
        # Iterate a sorted copy: deterministic under a fixed seed, and the
        # set is mutated on selection.  The full scan is order-blind (it
        # takes the max, ties broken randomly), but the early-exit modes
        # are order-*sensitive*: visit data with the most remaining
        # unprocessed users first, so the first hit is usually a good
        # one (cheap to order, and what makes OPTI "close to optimal").
        # One sort either way; (-users, d) keeps the id tie order the old
        # stable double sort produced.  With the index, the full scan and
        # OPTI visit only the data that unlock a task (``_scan_index``),
        # and the threshold scan needs only the first ``threshold`` data
        # of that order: nsmallest is documented equal to
        # ``sorted(...)[:threshold]``.
        if use_index and threshold is None:
            n_max, candidates = self._scan_index(gpu, not_in_mem)
            scan_order: List[int] = []
        elif use_index:
            scan_order = heapq.nsmallest(
                threshold, not_in_mem, key=lambda d: (-ru[d], d)
            )
        elif self.opti or threshold is not None:
            scan_order = sorted(not_in_mem, key=lambda d: (-ru[d], d))
        else:
            scan_order = sorted(not_in_mem)
        for d in scan_order:
            if d in inmem:
                not_in_mem.discard(d)  # stale entry: purge, don't revisit
                continue
            scanned += 1
            self.charge_ops(len(graph.users_of(d)))
            if use_index:
                s = idx.get(d)
                if not s:
                    n_d = 0
                elif deps:
                    n_d = sum(1 for t in s if self.view.is_released(t))
                else:
                    n_d = len(s)
            else:
                n_d = self._count_free_tasks(d, inmem)
            if n_d > n_max:
                n_max = n_d
                candidates = [d]
                if self.opti:
                    break
            elif n_d == n_max and n_d > 0:
                candidates.append(d)
            if threshold is not None and scanned >= threshold:
                break

        if n_max > 0:
            d_opt = self._select_candidate(candidates)
            self.charge_ops(len(graph.users_of(d_opt)))
            if use_index:
                s = idx.get(d_opt, set())
                # users_of order, exactly like the rescan produced
                free = [
                    t
                    for t in graph.users_of(d_opt)
                    if t in s and (not deps or self.view.is_released(t))
                ]
            else:
                free = self._free_tasks(d_opt, inmem)
            for t in free:
                self._unowned.discard(t)
                if use_index:
                    self._index_remove_task(t)
                planned.append(t)
            self._data_not_in_mem[gpu].discard(d_opt)
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

    def _scan_index(
        self, gpu: int, not_in_mem: Set[int]
    ) -> Tuple[int, List[int]]:
        """The full scan and OPTI over the free-task index.

        Returns ``(n_max, candidates)`` and charges the ops the per-datum
        scan of ``not_in_mem`` (purged of held data) would: one
        ``len(users_of(d))`` per datum visited.  Only data keying an
        index entry can have ``n(D) > 0``; every other datum scans to
        ``n(D) = 0``.  The full scan visits all of
        ``not_in_mem``.  OPTI visits it in ``(-remaining_users, d)``
        order up to its first hit: the least such key among the data with
        ``n(D) > 0``.  Candidate order is irrelevant, since
        ``_select_candidate`` sorts.
        """
        released = self.view.is_released
        deps = self.view.has_dependencies
        idx = self._free_by_datum[gpu]
        n_users = self._n_users
        if self.opti:
            ru = self._remaining_users
            unlocking = [
                d
                for d, s in idx.items()
                if d in not_in_mem and (not deps or any(map(released, s)))
            ]
            if not unlocking:
                self.charge_ops(sum(map(n_users.__getitem__, not_in_mem)))
                return 0, []
            r_hit = max(map(ru.__getitem__, unlocking))
            hit = min(d for d in unlocking if ru[d] == r_hit)
            self.charge_ops(
                sum(
                    n_users[d]
                    for d in not_in_mem
                    if ru[d] > r_hit or (ru[d] == r_hit and d <= hit)
                )
            )
            s = idx[hit]
            return (sum(map(released, s)) if deps else len(s)), [hit]
        self.charge_ops(sum(map(n_users.__getitem__, not_in_mem)))
        n_free: Dict[int, int] = {}
        for d, s in idx.items():
            if d in not_in_mem:
                n_d = sum(map(released, s)) if deps else len(s)
                if n_d:
                    n_free[d] = n_d
        if not n_free:
            return 0, []
        n_max = max(n_free.values())
        return n_max, [d for d, n_d in n_free.items() if n_d == n_max]

    def _count_free_tasks(self, d: int, inmem: Set[int]) -> int:
        """``n(D)``: unowned tasks whose only absent input is ``d``."""
        graph = self.view.graph
        n = 0
        for t in graph.users_of(d):
            if t not in self._unowned or not self.view.is_released(t):
                continue
            if all(x in inmem or x == d for x in graph.inputs_of(t)):
                n += 1
        return n

    def _free_tasks(self, d: int, inmem: Set[int]) -> List[int]:
        graph = self.view.graph
        return [
            t
            for t in graph.users_of(d)
            if t in self._unowned
            and self.view.is_released(t)
            and all(x in inmem or x == d for x in graph.inputs_of(t))
        ]

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
        task (so both its missing inputs get loaded).
        """
        graph = self.view.graph
        score: Dict[int, int] = {}
        task_for: Dict[int, int] = {}
        pool: Iterable[int] = (
            compress(range(graph.n_tasks), self._two_missing[gpu])
            if self._use_index
            else sorted(self._unowned)
        )
        for t in pool:
            if not self.view.is_released(t):
                continue
            missing = [x for x in graph.inputs_of(t) if x not in inmem]
            if len(missing) != 2:
                continue
            for d in missing:
                score[d] = score.get(d, 0) + 1
                task_for.setdefault(d, t)
        if not score:
            return None
        best = max(score.values())
        top = sorted(d for d, s in score.items() if s == best)
        d = top[0] if len(top) == 1 else self._rng.choice(top)
        return task_for[d]

    def _random_unowned(self) -> Optional[int]:
        pool = sorted(
            t for t in self._unowned if self.view.is_released(t)
        )
        if not pool:
            return None
        return self._rng.choice(pool)

    def _take(self, gpu: int, task: int) -> None:
        """Direct allocation (Algorithm 5 line 13)."""
        self._unowned.discard(task)
        if self._use_index:
            self._index_remove_task(task)
        for d in self.view.graph.inputs_of(task):
            self._data_not_in_mem[gpu].discard(d)

    # ------------------------------------------------------------------
    # notifications
    # ------------------------------------------------------------------
    def task_done(self, gpu: int, task_id: int) -> None:
        self._executed.add(task_id)
        for d in self.view.graph.inputs_of(task_id):
            self._remaining_users[d] -= 1

    def on_data_loaded(self, gpu: int, data_id: int) -> None:
        self._data_not_in_mem[gpu].discard(data_id)

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        """``data_id`` joins ``gpu``'s held-set: one less missing input
        for each of its users there."""
        if not self._use_index:
            return
        mc = self._miss_count[gpu]
        ms = self._miss_sum[gpu]
        idx = self._free_by_datum[gpu]
        two = self._two_missing[gpu] if self.three_inputs else None
        unowned = self._unowned
        for t in self.view.graph.users_of(data_id):
            old = mc[t]
            mc[t] = old - 1
            ms[t] -= data_id
            if t in unowned:
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
        returned = list(requeued) + list(self._planned[gpu])
        self._planned[gpu].clear()
        for t in returned:
            if t in self._executed or t in self._unowned:
                continue
            self._unowned.add(t)
            if self._use_index:
                self._index_add_task(t)

    def on_data_evicted(self, gpu: int, data_id: int) -> None:
        """Algorithm 6 line 8: un-reserve planned tasks needing the victim."""
        self._data_not_in_mem[gpu].add(data_id)
        graph = self.view.graph
        if self._use_index:
            mc = self._miss_count[gpu]
            ms = self._miss_sum[gpu]
            idx = self._free_by_datum[gpu]
            two = self._two_missing[gpu] if self.three_inputs else None
            unowned = self._unowned
            for t in graph.users_of(data_id):
                old = mc[t]
                mc[t] = old + 1
                ms[t] += data_id
                if t in unowned:
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
                self._unowned.add(t)
                if self._use_index:
                    self._index_add_task(t)
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

    def describe(self) -> str:
        flags = []
        if self.opti:
            flags.append("OPTI")
        if self.three_inputs:
            flags.append("3inputs")
        if self.threshold is not None:
            flags.append(f"threshold={self.threshold}")
        return f"DARTS({', '.join(flags)})" if flags else "DARTS"
