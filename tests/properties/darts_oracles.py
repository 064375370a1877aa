"""DARTS's held-set hooks as they were before they visited only the pool.

``repro.schedulers.darts.Darts`` keeps ``_miss_count``/``_miss_sum``
for unowned (pool) tasks alone: ``on_fetch_issued`` and
``on_data_evicted`` walk ``_pool[d]``, and a task returning to the pool
is recounted from the held sets.  The functions below are the earlier
versions, which walked every user of the datum and kept the counts of
every task, planned and executed ones included.  ``ALL_USERS_HOOKS``
maps each ``Darts`` attribute to its frozen stand-in, for
``mock.patch.multiple``; ``test_runtime_equivalence`` asserts both
decide the same.  ``on_device_lost`` drops only the check against
executed tasks, which could not fire.  Nothing under ``src`` imports
this module.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.schedulers.darts import _unindex


def build_index(self) -> None:
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


def index_remove_task(self, t: int) -> None:
    for g in range(self.view.n_gpus):
        count = self._miss_count[g][t]
        if count == 1:
            _unindex(self._free_by_datum[g], self._miss_sum[g][t], t)
        elif count == 2 and self.three_inputs:
            self._two_missing[g][t] = 0


def index_add_task(self, t: int) -> None:
    for g in range(self.view.n_gpus):
        count = self._miss_count[g][t]
        if count == 1:
            self._free_by_datum[g].setdefault(self._miss_sum[g][t], set()).add(t)
        elif count == 2 and self.three_inputs:
            self._two_missing[g][t] = 1


def leave_pool(self, t: int) -> None:
    self._unowned.discard(t)
    index_remove_task(self, t)


def on_fetch_issued(self, gpu: int, data_id: int) -> None:
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
    self._dead_gpus.add(gpu)
    returned = list(requeued) + list(self._planned[gpu])
    self._planned[gpu].clear()
    for t in returned:
        if t in self._unowned:
            continue
        self._unowned.add(t)
        index_add_task(self, t)


def on_data_evicted(self, gpu: int, data_id: int) -> None:
    not_in_mem = self._data_not_in_mem[gpu]
    if data_id not in not_in_mem:
        not_in_mem.add(data_id)
        self._scan_charge[gpu] += self._n_users[data_id]
    graph = self.view.graph
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
            index_add_task(self, t)
        else:
            keep.append(t)
    if len(keep) != len(planned):
        planned.clear()
        planned.extend(keep)


#: ``Darts`` attribute -> its all-users stand-in
ALL_USERS_HOOKS = {
    "_build_index": build_index,
    "_leave_pool": leave_pool,
    "on_fetch_issued": on_fetch_issued,
    "on_device_lost": on_device_lost,
    "on_data_evicted": on_data_evicted,
}
