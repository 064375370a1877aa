"""Property tests for the incrementally-maintained hot-path caches.

The core optimization replaced from-scratch rescans with incremental
state (memory present/fetching/evictable sets, the DARTS free-task
index and scan order, the Ready missing-bytes buckets).  These
tests drive the caches through arbitrary operation sequences — both
synthetic ones against a bare :class:`DeviceMemory` and real
simulations on random graphs — and assert at every step that each cache
equals a fresh recomputation, and that every DARTS refill and Ready pop
chooses and charges what the scan it replaced would have, which is the
invariant the byte-identity argument rests on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import TaskGraph
from repro.dag.deps import DependencySet
from repro.dag.workloads import cholesky_dag
from repro.schedulers.darts import Darts
from repro.schedulers.dmda import Dmdar
from repro.schedulers.hfp import Mhfp
from repro.schedulers.partition import HmetisR
from repro.simulator.faults import DeviceFailure, FaultPlan
from repro.simulator.memory import MemoryFullError
from repro.simulator.runtime import simulate
from repro.workloads.matmul2d import matmul2d
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


def reference_two_load(sched, gpu):
    """The 3inputs fallback's choice, recomputed from scratch.

    Over the released unowned tasks missing exactly two inputs on
    ``gpu``, in ascending id, scores each missing datum by the number of
    those tasks needing it and keeps its first such task.  Returns
    ``(tasks, n_unreleased)``: the first tasks of the top-scoring data
    (one datum when the top score is unique, else the candidates of the
    random tie-break; empty when no task is two loads away) and the
    number of such tasks the released filter skipped.
    """
    view = sched.view
    graph = view.graph
    held = view.held(gpu)
    score, first, n_unreleased = {}, {}, 0
    for t in sorted(sched._unowned):
        missing = [x for x in graph.inputs_of(t) if x not in held]
        if len(missing) != 2:
            continue
        if not view.is_released(t):
            n_unreleased += 1
            continue
        for d in missing:
            score[d] = score.get(d, 0) + 1
            first.setdefault(d, t)
    if not score:
        return set(), n_unreleased
    best = max(score.values())
    return {first[d] for d in score if score[d] == best}, n_unreleased


class _CheckedDarts(Darts):
    """DARTS that re-verifies its free-task index and its kept full-scan
    charge on every memory event and every refill against
    :func:`reference_scan` and, for the 3inputs fallback,
    :func:`reference_two_load`."""

    #: fallback choices checked while the released filter skipped a task
    filtered_fallbacks = 0

    def on_fetch_issued(self, gpu, data_id):
        super().on_fetch_issued(gpu, data_id)
        self.check_index()

    def on_data_evicted(self, gpu, data_id):
        super().on_data_evicted(gpu, data_id)
        self.check_index()

    def on_data_loaded(self, gpu, data_id):
        super().on_data_loaded(gpu, data_id)
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
        two_load, n_unreleased = reference_two_load(self, gpu)
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
                if two_load:
                    assert task in two_load, (task, two_load)
                    self.filtered_fallbacks += n_unreleased > 0
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


def reference_pop(lists, gpu, view):
    """Ready's linear scan (Algorithm 2), recomputed from scratch.

    Walks ``gpu``'s list in order, skipping unreleased tasks, and keeps
    the first task with the fewest fresh ``missing_bytes``, stopping at
    the first that misses nothing.  Returns ``(task, scanned)``: the task
    :meth:`ReadyLists.pop_ready` must pop (``None`` when nothing is
    released) and the ``last_scanned`` it must charge.
    """
    best, best_missing, scanned = None, float("inf"), 0
    for task in lists.lists[gpu]:
        scanned += 1
        if not view.is_released(task):
            continue
        missing = view.missing_bytes(gpu, task)
        if missing < best_missing:
            best, best_missing = task, missing
            if missing == 0:
                break
    return best, scanned


class _ReadyOracle:
    """Re-verifies the Ready buckets on every memory event and checks
    every pop's task and charge against :func:`reference_pop`."""

    def prepare(self, view):
        super().prepare(view)
        lists = self._lists
        pop = lists.pop_ready

        def checked_pop(gpu, view_):
            expected = reference_pop(lists, gpu, view_)
            task = pop(gpu, view_)
            assert (task, lists.last_scanned) == expected
            lists.check_incremental(view_)
            return task

        lists.pop_ready = checked_pop

    def on_fetch_issued(self, gpu, data_id):
        super().on_fetch_issued(gpu, data_id)
        self._lists.check_incremental(self.view)

    def on_data_evicted(self, gpu, data_id):
        super().on_data_evicted(gpu, data_id)
        self._lists.check_incremental(self.view)


class _CheckedDmdar(_ReadyOracle, Dmdar):
    pass


class _CheckedMhfp(_ReadyOracle, Mhfp):
    pass


class _CheckedHmetisR(_ReadyOracle, HmetisR):
    """hMETIS+R: stealing re-enters tasks into the thief's buckets."""


READY_CLASSES = [_CheckedDmdar, _CheckedMhfp, _CheckedHmetisR]


@st.composite
def graph_case(draw):
    """A random bipartite graph, with uniform or heterogeneous whole-byte
    sizes, and a memory that holds at least its largest task footprint."""
    n_data = draw(st.integers(3, 8))
    n_tasks = draw(st.integers(2, 16))
    arity = draw(st.integers(1, min(3, n_data)))
    seed = draw(st.integers(0, 9999))
    heterogeneous = draw(st.booleans())
    graph = random_bipartite(
        n_tasks,
        n_data,
        arity=arity,
        data_size=4.0 if heterogeneous else 1.0,
        task_flops=1.0,
        seed=seed,
        heterogeneous_sizes=heterogeneous,
    )
    sizes = [d.size for d in graph.data]
    largest = max(sum(sizes[d] for d in t.inputs) for t in graph.tasks)
    memory = float(draw(st.integers(int(largest), int(sum(sizes)) + 1)))
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


@st.composite
def output_chain_case(draw):
    """Producer chains (layer i feeds layer i+1 through produced data, as
    in ``test_extension_properties.output_case``) whose tasks also read
    one shared input, so a task misses up to two data and every output
    allocation moves the caches."""
    layers = draw(st.integers(1, 4))
    width = draw(st.integers(1, 3))
    g = TaskGraph()
    shared = g.add_data(1.0)
    inputs = [g.add_data(1.0) for _ in range(width)]
    prev_tasks = [None] * width
    edges = []
    for _layer in range(layers):
        outputs = [g.add_data(1.0) for _ in range(width)]
        for w in range(width):
            t = g.add_task([inputs[w], shared], flops=1.0, outputs=[outputs[w]])
            if prev_tasks[w] is not None:
                edges.append((prev_tasks[w], t.id))
            prev_tasks[w] = t.id
        inputs = outputs
    memory = float(draw(st.integers(3, g.n_data + 1)))
    n_gpus = draw(st.integers(1, 3))
    window = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 9999))
    return g, DependencySet(g.n_tasks, edges), memory, n_gpus, window, seed


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

    @pytest.mark.parametrize("variant", sorted(DARTS_VARIANTS))
    @given(case=graph_case(), fail_at=st.floats(0.0, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_darts_index_after_device_failure(self, variant, case, fail_at):
        """A device failure returns the dead GPU's tasks to the pool;
        the survivors' index and scan charge stay exact."""
        graph, memory, n_gpus, window, seed = case
        platform = toy_platform(n_gpus=n_gpus + 1, memory=memory, bandwidth=5.0)
        base = simulate(graph, platform, Darts(), window=window, seed=seed)
        fail_time = fail_at * base.makespan
        plan = FaultPlan(
            device_failures=(DeviceFailure(gpu=0, time=fail_time),)
        )
        sched = _CheckedDarts(**DARTS_VARIANTS[variant])
        result = simulate(
            graph, platform, sched, window=window, seed=seed, faults=plan
        )
        if fail_time < result.makespan:
            assert sched._dead_gpus == {0}, "the failure must fire"
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(graph.n_tasks))

    def test_unreserved_task_is_recounted(self):
        """Algorithm 6 line 8 returns planned tasks needing the victim to
        the pool.  While planned, their counts were not kept (an input
        was fetched meanwhile), so the return must recount them:
        ``check_index`` runs right after each eviction hook."""
        returned = []

        class Watched(_CheckedDarts):
            def on_data_evicted(self, gpu, data_id):
                planned = set(self._planned[gpu])
                super().on_data_evicted(gpu, data_id)  # checks the index
                back = planned - set(self._planned[gpu])
                assert back <= self._unowned
                returned.extend(back)

        graph = matmul2d(4, data_size=1.0, task_flops=1.0)
        result = simulate(
            graph,
            toy_platform(n_gpus=2, memory=4.0, bandwidth=5.0),
            Watched(),
            window=2,
            seed=1,
        )
        assert len(returned) == 3, "planned tasks must be un-reserved"
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(graph.n_tasks))

    @pytest.mark.parametrize("variant", ["3inputs", "opti-3inputs"])
    def test_two_load_fallback_skips_unreleased(self, variant):
        """On a Cholesky DAG the 3inputs fallback meets tasks two loads
        away that are not yet released; it still chooses as the
        from-scratch recomputation does."""
        graph, deps = cholesky_dag(5, data_size=1.0)
        sched = _CheckedDarts(**DARTS_VARIANTS[variant])
        result = simulate(
            graph,
            toy_platform(n_gpus=2, memory=4.0, bandwidth=5.0),
            sched,
            window=2,
            seed=0,
            dependencies=deps,
        )
        assert sched.filtered_fallbacks > 0, "the released filter must run"
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(graph.n_tasks))

    @pytest.mark.parametrize("cls", READY_CLASSES)
    @given(case=graph_case())
    @settings(max_examples=40, deadline=None)
    def test_ready_cache_matches_missing_bytes(self, cls, case):
        graph, memory, n_gpus, window, seed = case
        sched = cls()
        result = simulate(
            graph,
            toy_platform(n_gpus=n_gpus, memory=memory, bandwidth=5.0),
            sched,
            window=window,
            seed=seed,
        )
        assert sched._lists._mb is not None, "the buckets must be on"
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(graph.n_tasks))

    @pytest.mark.parametrize("cls", READY_CLASSES)
    @given(case=cholesky_case())
    @settings(max_examples=15, deadline=None)
    def test_ready_pops_with_dependencies(self, cls, case):
        graph, deps, memory, n_gpus, window, seed = case
        sched = cls()
        result = simulate(
            graph,
            toy_platform(n_gpus=n_gpus, memory=memory, bandwidth=5.0),
            sched,
            window=window,
            seed=seed,
            dependencies=deps,
        )
        assert sched._lists._mb is not None, "the buckets must be on"
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(graph.n_tasks))

    @pytest.mark.parametrize("cls", READY_CLASSES)
    @given(case=graph_case(), fail_at=st.floats(0.0, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_ready_pops_after_drop_gpu(self, cls, case, fail_at):
        """A device failure hands the dead GPU's tasks to the survivors'
        buckets (``drop_gpu``)."""
        graph, memory, n_gpus, window, seed = case
        platform = toy_platform(n_gpus=n_gpus + 1, memory=memory, bandwidth=5.0)
        base = simulate(graph, platform, Dmdar(), window=window, seed=seed)
        fail_time = fail_at * base.makespan
        plan = FaultPlan(
            device_failures=(DeviceFailure(gpu=0, time=fail_time),)
        )
        sched = cls()
        result = simulate(
            graph, platform, sched, window=window, seed=seed, faults=plan
        )
        assert sched._lists._mb is not None, "the buckets must be on"
        if fail_time < result.makespan:
            assert sched._lists._dead == {0}, "the failure must fire"
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(graph.n_tasks))


class TestCachesOnOutputGraphs:
    """Output allocation enters the held set through ``on_fetch_issued``,
    so the caches stay exact on graphs that produce data."""

    @pytest.mark.parametrize("variant", sorted(DARTS_VARIANTS))
    @given(case=output_chain_case())
    @settings(max_examples=60, deadline=None)
    def test_darts_index_with_outputs(self, variant, case):
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
        assert result.total_stores == graph.n_tasks

    @pytest.mark.parametrize("cls", READY_CLASSES)
    @given(case=output_chain_case())
    @settings(max_examples=60, deadline=None)
    def test_ready_cache_with_outputs(self, cls, case):
        graph, deps, memory, n_gpus, window, seed = case
        sched = cls()
        result = simulate(
            graph,
            toy_platform(n_gpus=n_gpus, memory=memory, bandwidth=5.0),
            sched,
            window=window,
            seed=seed,
            dependencies=deps,
        )
        assert sched._lists._mb is not None, "the cache must be on"
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(graph.n_tasks))
