"""Unit tests for the online eviction policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eviction import POLICY_NAMES, make_policy
from repro.eviction.belady_online import OnlineBeladyPolicy
from repro.eviction.fifo import FifoPolicy
from repro.eviction.lru import LruPolicy
from repro.eviction.luf import LufPolicy
from repro.eviction.random_policy import RandomPolicy


class FakeView:
    """Minimal RuntimeView stand-in for policy unit tests."""

    def __init__(self, graph=None, buffers=None, rng=None):
        import random

        self.graph = graph
        self._buffers = buffers or {}
        self.rng = rng or random.Random(0)

    def task_buffer(self, gpu):
        return self._buffers.get(gpu, [])


class FakeScheduler:
    def __init__(self, planned=None, remaining=None):
        self._planned = planned or {}
        self._remaining = remaining or {}

    def planned_tasks(self, gpu):
        return self._planned.get(gpu, ())

    def remaining_order(self, gpu):
        return self._remaining.get(gpu, ())


class TestLru:
    def test_evicts_least_recently_touched(self):
        p = LruPolicy(gpu=0)
        for d in (1, 2, 3):
            p.on_insert(d)
        p.on_access(1)  # 2 is now the oldest
        assert p.choose_victim({1, 2, 3}) == 2

    def test_access_and_insert_both_refresh(self):
        p = LruPolicy(gpu=0)
        p.on_insert(1)
        p.on_insert(2)
        p.on_insert(1)  # reinsertion refreshes
        assert p.choose_victim({1, 2}) == 2

    def test_unknown_data_treated_as_oldest(self):
        p = LruPolicy(gpu=0)
        p.on_insert(1)
        assert p.choose_victim({1, 9}) == 9

    def test_evict_forgets_stamp(self):
        p = LruPolicy(gpu=0)
        p.on_insert(1)
        p.on_evict(1)
        p.on_insert(2)
        assert p.choose_victim({1, 2}) == 1


class _StampLru:
    """LRU by clock stamps: a candidate's key is ``(stamp, id)``, with
    never-touched data stamped -1."""

    def __init__(self):
        self.stamp = {}
        self.clock = 0

    def touch(self, d):
        self.clock += 1
        self.stamp[d] = self.clock

    def evict(self, d):
        self.stamp.pop(d, None)

    def victim(self, candidates):
        return min(candidates, key=lambda d: (self.stamp.get(d, -1), d))


lru_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "access", "evict", "victim"]),
        st.integers(0, 7),
        st.frozensets(st.integers(0, 7), min_size=1),
    ),
    max_size=60,
)


class TestLruMatchesStampReference:
    @given(lru_ops)
    @settings(max_examples=100, deadline=None)
    def test_same_victim_as_stamps(self, ops):
        policy, ref = LruPolicy(gpu=0), _StampLru()
        for op, d, candidates in ops:
            if op == "insert":
                policy.on_insert(d)
                ref.touch(d)
            elif op == "access":
                policy.on_access(d)
                ref.touch(d)
            elif op == "evict":
                policy.on_evict(d)
                ref.evict(d)
            else:  # choose among candidates, then evict the victim
                victim = policy.choose_victim(set(candidates))
                assert victim == ref.victim(candidates)
                policy.on_evict(victim)
                ref.evict(victim)


class TestFifo:
    def test_evicts_oldest_load_ignoring_access(self):
        p = FifoPolicy(gpu=0)
        p.on_insert(1)
        p.on_insert(2)
        p.on_access(1)  # FIFO ignores accesses
        assert p.choose_victim({1, 2}) == 1


class TestRandom:
    def test_deterministic_under_fixed_seed(self):
        import random

        a = RandomPolicy(gpu=0, view=FakeView(rng=random.Random(1)))
        b = RandomPolicy(gpu=0, view=FakeView(rng=random.Random(1)))
        picks_a = [a.choose_victim({1, 2, 3, 4}) for _ in range(10)]
        picks_b = [b.choose_victim({1, 2, 3, 4}) for _ in range(10)]
        assert picks_a == picks_b

    def test_choice_is_a_candidate(self):
        p = RandomPolicy(gpu=0, view=FakeView())
        for _ in range(20):
            assert p.choose_victim({5, 7}) in {5, 7}


class TestOnlineBelady:
    def _graph(self):
        from repro.core.problem import TaskGraph

        g = TaskGraph()
        for _ in range(4):
            g.add_data(1.0)
        g.add_task([0, 1], flops=1.0)  # T0
        g.add_task([2, 3], flops=1.0)  # T1
        g.add_task([0, 2], flops=1.0)  # T2
        return g

    def test_prefers_never_used_again(self):
        g = self._graph()
        view = FakeView(graph=g, buffers={0: [0]})  # future: T0 only
        p = OnlineBeladyPolicy(gpu=0, view=view, scheduler=FakeScheduler())
        # 3 is not used by T0: perfect victim
        assert p.choose_victim({0, 1, 3}) == 3

    def test_uses_scheduler_remaining_order(self):
        g = self._graph()
        view = FakeView(graph=g, buffers={0: [0]})
        sched = FakeScheduler(remaining={0: [1]})  # T1 uses 2 and 3
        p = OnlineBeladyPolicy(gpu=0, view=view, scheduler=sched)
        # now 3 IS used (by T1, offset 1); datum 2 also offset 1; the
        # victim must be one with the furthest use: 2 or 3 (offset 1)
        # while 0,1 are used at offset 0.
        assert p.choose_victim({0, 1, 2, 3}) in (2, 3)

    def test_falls_back_to_lru_among_unused(self):
        g = self._graph()
        view = FakeView(graph=g, buffers={0: []})
        p = OnlineBeladyPolicy(gpu=0, view=view, scheduler=FakeScheduler())
        p.on_insert(5)
        p.on_insert(6)
        p.on_access(5)
        # nothing in the future: evict least recently used = 6
        assert p.choose_victim({5, 6}) == 6


class TestLuf:
    """Algorithm 6 behaviour."""

    def _graph(self):
        from repro.core.problem import TaskGraph

        g = TaskGraph()
        for _ in range(5):
            g.add_data(1.0)
        g.add_task([0, 1], flops=1.0)  # T0
        g.add_task([1, 2], flops=1.0)  # T1
        g.add_task([3, 4], flops=1.0)  # T2
        return g

    def test_prefers_data_unused_by_buffer(self):
        g = self._graph()
        view = FakeView(graph=g, buffers={0: [0, 1]})  # uses 0,1,2
        p = LufPolicy(gpu=0, view=view, scheduler=FakeScheduler())
        # candidate 3 has nb=0; 0,1 have nb>0
        assert p.choose_victim({0, 1, 3}) == 3

    def test_among_unused_prefers_min_planned_uses(self):
        g = self._graph()
        view = FakeView(graph=g, buffers={0: [0]})  # buffer uses 0,1
        sched = FakeScheduler(planned={0: [2]})  # planned T2 uses 3,4
        p = LufPolicy(gpu=0, view=view, scheduler=sched)
        # candidates 2,3: both nb=0; np(2)=0 (datum 2 unused by T2),
        # np(3)=1 -> evict 2
        assert p.choose_victim({2, 3}) == 2

    def test_belady_fallback_when_all_used_by_buffer(self):
        g = self._graph()
        view = FakeView(graph=g, buffers={0: [0, 1]})  # T0 then T1
        p = LufPolicy(gpu=0, view=view, scheduler=FakeScheduler())
        # candidates 0 (used at offset 0) and 2 (used at offset 1):
        # furthest next use in the buffer wins -> 2
        assert p.choose_victim({0, 2}) == 2

    def test_works_without_scheduler(self):
        g = self._graph()
        view = FakeView(graph=g, buffers={0: []})
        p = LufPolicy(gpu=0, view=view, scheduler=None)
        assert p.choose_victim({0, 4}) in (0, 4)


class TestFactory:
    def test_all_names_constructible(self):
        import random

        view = FakeView(rng=random.Random(0))
        for name in POLICY_NAMES:
            policy = make_policy(name, 0, view, FakeScheduler())
            assert policy.name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown eviction"):
            make_policy("magic", 0, FakeView(), FakeScheduler())

    def test_simulate_builds_a_policy_class_like_its_name(self):
        """A class goes through ``make_policy`` too, so LUF gets the
        scheduler and sees DARTS's planned tasks (a class used to be
        called as a ``(gpu, view)`` factory, leaving LUF without it)."""
        from repro.platform.spec import tesla_v100_node
        from repro.schedulers.registry import make_scheduler
        from repro.simulator.runtime import simulate
        from repro.workloads.matmul2d import matmul2d

        graph = matmul2d(20)
        platform = tesla_v100_node(2, memory_bytes=100e6)
        results = []
        for eviction in ("luf", LufPolicy):
            sched, _ = make_scheduler("darts+luf")
            results.append(
                simulate(
                    graph,
                    platform,
                    sched,
                    eviction=eviction,
                    seed=1,
                    record_trace=True,
                )
            )
        by_name, by_class = results
        assert by_class.total_loads == by_name.total_loads == 175
        assert by_class.makespan == by_name.makespan
        assert by_class.trace_digest == by_name.trace_digest
