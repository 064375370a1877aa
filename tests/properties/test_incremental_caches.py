"""Property tests for the incrementally-maintained hot-path caches.

The core optimization replaced from-scratch rescans with incremental
state (memory present/fetching/evictable sets, the DARTS free-task
index, the Ready missing-bytes cache).  These tests drive the caches
through arbitrary operation sequences — both synthetic ones against a
bare :class:`DeviceMemory` and real simulations on random graphs — and
assert at every step that each cache equals a fresh recomputation,
which is the invariant the byte-identity argument rests on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dag.workloads import cholesky_dag
from repro.schedulers.darts import Darts
from repro.schedulers.dmda import Dmdar
from repro.schedulers.hfp import Mhfp
from repro.simulator.memory import MemoryFullError
from repro.simulator.runtime import simulate
from repro.workloads.randomgraph import random_bipartite

from tests.conftest import toy_platform
from tests.simulator.test_memory import make_memory

N_DATA = 8


@st.composite
def memory_ops(draw):
    """A sequence of (op, datum/delta) actions on one DeviceMemory."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(
                    ["request", "pin", "unpin", "evict", "advance"]
                ),
                st.integers(0, N_DATA - 1),
            ),
            min_size=1,
            max_size=60,
        )
    )
    capacity = draw(st.integers(2, N_DATA))
    return ops, float(capacity)


class TestMemoryIncrementalSets:
    @given(memory_ops())
    @settings(max_examples=150, deadline=None)
    def test_sets_match_rescan_after_arbitrary_ops(self, case):
        """present/fetching/evictable stay equal to a fresh rescan."""
        ops, capacity = case
        eng, mem, _policy, _ready, _evicted = make_memory(
            capacity=capacity, sizes=[1.0] * N_DATA
        )
        pinned = []
        for op, d in ops:
            if op == "request":
                try:
                    mem.request(d)
                except MemoryFullError:
                    pass
            elif op == "pin":
                if mem.holds(d):
                    mem.pin(d)
                    pinned.append(d)
            elif op == "unpin":
                if d in pinned:
                    mem.unpin(d)
                    pinned.remove(d)
            elif op == "evict":
                if d in mem.evictable():
                    mem.evict(d)
            elif op == "advance":
                eng.run(until=eng.now + float(d + 1))
            mem.check_invariants()
        eng.run()
        mem.check_invariants()


def reference_scan(sched, gpu):
    """DARTS's sorted scan of ``dataNotInMem``, recomputed from scratch.

    Visits the non-held data of ``dataNotInMem`` in the scan order of
    Algorithm 5 (by id for the full scan; most remaining users first for
    OPTI and the threshold), counting each datum's free tasks from the
    graph and the held set alone.  Returns ``(n_max, candidates, ops)``
    with ``ops`` the ``len(users_of(d))`` charged per visited datum.
    """
    view = sched.view
    graph = view.graph
    held = view.held(gpu)
    ru = sched._remaining_users
    threshold = sched.threshold if sched._threshold_active else None

    def n_free(d):
        return sum(
            1
            for t in graph.users_of(d)
            if t in sched._unowned
            and view.is_released(t)
            and all(x in held or x == d for x in graph.inputs_of(t))
        )

    data = [d for d in sched._data_not_in_mem[gpu] if d not in held]
    if sched.opti or threshold is not None:
        data.sort(key=lambda d: (-ru[d], d))
    else:
        data.sort()
    if threshold is not None:
        data = data[:threshold]
    n_max, candidates, ops = 0, [], 0
    for d in data:
        ops += len(graph.users_of(d))
        n = n_free(d)
        if n > n_max:
            n_max, candidates = n, [d]
            if sched.opti:
                break
        elif n == n_max and n > 0:
            candidates.append(d)
    return n_max, set(candidates), ops


class _CheckedDarts(Darts):
    """DARTS that re-verifies its free-task index on every memory event
    and every refill against :func:`reference_scan`."""

    def on_fetch_issued(self, gpu, data_id):
        super().on_fetch_issued(gpu, data_id)
        self.check_index()

    def on_data_evicted(self, gpu, data_id):
        super().on_data_evicted(gpu, data_id)
        self.check_index()

    def next_task(self, gpu):
        task = super().next_task(gpu)
        self.check_index()
        return task

    def _refill(self, gpu):
        graph = self.view.graph
        held = self.view.held(gpu)
        n_max, candidates, scan_ops = reference_scan(self, gpu)
        n_unowned = len(self._unowned)
        two_load = any(
            self.view.is_released(t)
            and sum(x not in held for x in graph.inputs_of(t)) == 2
            for t in self._unowned
        )
        pending = self.consume_ops()
        task = super()._refill(gpu)
        ops = self.consume_ops()
        self.charge_ops(pending + ops)  # leave the runtime's count intact
        if n_max > 0:
            missing = [x for x in graph.inputs_of(task) if x not in held]
            assert len(missing) == 1 and missing[0] in candidates
            chosen = missing[0]
            best = max(self._remaining_users[d] for d in candidates)
            assert self._remaining_users[chosen] == best
            assert 1 + len(self._planned[gpu]) == n_max
            assert ops == scan_ops + len(graph.users_of(chosen))
        else:
            expected = scan_ops + 1
            if self.three_inputs:
                expected += n_unowned - (1 if two_load else 0)
            assert ops == expected
        return task


#: every DARTS variant whose refill scans differently; a threshold of 2
#: with a zero activation ratio is active on every graph
DARTS_VARIANTS = {
    "full": {},
    "3inputs": {"three_inputs": True},
    "opti": {"opti": True},
    "opti-3inputs": {"opti": True, "three_inputs": True},
    "threshold": {"threshold": 2, "threshold_activation_ratio": 0.0},
}


class _CheckedDmdar(Dmdar):
    """DMDAR that re-verifies the missing-bytes cache on every event."""

    def on_fetch_issued(self, gpu, data_id):
        super().on_fetch_issued(gpu, data_id)
        self._lists.check_incremental(self.view)

    def on_data_evicted(self, gpu, data_id):
        super().on_data_evicted(gpu, data_id)
        self._lists.check_incremental(self.view)


class _CheckedMhfp(Mhfp):
    def on_fetch_issued(self, gpu, data_id):
        super().on_fetch_issued(gpu, data_id)
        self._lists.check_incremental(self.view)

    def on_data_evicted(self, gpu, data_id):
        super().on_data_evicted(gpu, data_id)
        self._lists.check_incremental(self.view)


@st.composite
def graph_case(draw):
    n_data = draw(st.integers(3, 8))
    n_tasks = draw(st.integers(2, 16))
    arity = draw(st.integers(1, min(3, n_data)))
    seed = draw(st.integers(0, 9999))
    graph = random_bipartite(
        n_tasks, n_data, arity=arity, data_size=1.0, task_flops=1.0, seed=seed
    )
    memory = float(draw(st.integers(arity, n_data + 1)))
    n_gpus = draw(st.integers(1, 3))
    window = draw(st.integers(1, 3))
    return graph, memory, n_gpus, window, seed


@st.composite
def cholesky_case(draw):
    """A small Cholesky DAG: tasks are released as predecessors finish."""
    graph, deps = cholesky_dag(draw(st.integers(3, 6)), data_size=1.0)
    memory = float(draw(st.integers(3, graph.n_data + 1)))
    n_gpus = draw(st.integers(1, 3))
    window = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 9999))
    return graph, deps, memory, n_gpus, window, seed


class TestSchedulerCachesMatchRecompute:
    @pytest.mark.parametrize("variant", sorted(DARTS_VARIANTS))
    @given(case=graph_case())
    @settings(max_examples=60, deadline=None)
    def test_darts_index_matches_fresh_recompute(self, variant, case):
        """The free-task index equals a from-scratch rebuild mid-run, and
        every refill charges and chooses what the sorted scan would."""
        graph, memory, n_gpus, window, seed = case
        result = simulate(
            graph,
            toy_platform(n_gpus=n_gpus, memory=memory, bandwidth=5.0),
            _CheckedDarts(**DARTS_VARIANTS[variant]),
            window=window,
            seed=seed,
        )
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(graph.n_tasks))

    @pytest.mark.parametrize("variant", sorted(DARTS_VARIANTS))
    @given(case=cholesky_case())
    @settings(max_examples=15, deadline=None)
    def test_darts_index_with_dependencies(self, variant, case):
        graph, deps, memory, n_gpus, window, seed = case
        result = simulate(
            graph,
            toy_platform(n_gpus=n_gpus, memory=memory, bandwidth=5.0),
            _CheckedDarts(**DARTS_VARIANTS[variant]),
            window=window,
            seed=seed,
            dependencies=deps,
        )
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(graph.n_tasks))

    @pytest.mark.parametrize("cls", [_CheckedDmdar, _CheckedMhfp])
    @given(case=graph_case())
    @settings(max_examples=40, deadline=None)
    def test_ready_cache_matches_missing_bytes(self, cls, case):
        graph, memory, n_gpus, window, seed = case
        result = simulate(
            graph,
            toy_platform(n_gpus=n_gpus, memory=memory, bandwidth=5.0),
            cls(),
            window=window,
            seed=seed,
        )
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(graph.n_tasks))
