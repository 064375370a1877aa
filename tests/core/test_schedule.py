"""Tests for schedules, analytic replay, and the live-set recursion."""

import pytest

from repro.core.problem import TaskGraph
from repro.core.schedule import (
    InfeasibleScheduleError,
    Schedule,
    replay_schedule,
    verify_live_set_recursion,
)
from repro.eviction import POLICY_NAMES, EvictionPolicy, LruPolicy


class TestScheduleObject:
    def test_single_gpu_constructor(self):
        s = Schedule.single_gpu([2, 0, 1])
        assert s.n_gpus == 1
        assert s.order == [[2, 0, 1]]

    def test_nb_and_max_load(self):
        s = Schedule(order=[[0, 1, 2], [3]])
        assert s.nb(0) == 3
        assert s.nb(1) == 1
        assert s.max_load == 3

    def test_all_tasks_flattens_in_gpu_order(self):
        s = Schedule(order=[[1], [0, 2]])
        assert s.all_tasks == [1, 0, 2]

    def test_validate_complete_ok(self, figure1_graph):
        s = Schedule(order=[[0, 1, 4, 3], [2, 5, 8, 7, 6]])
        s.validate(figure1_graph)

    def test_validate_missing_task_raises(self, figure1_graph):
        s = Schedule(order=[[0, 1], [2]])
        with pytest.raises(InfeasibleScheduleError, match="missing"):
            s.validate(figure1_graph)

    def test_validate_duplicate_raises(self, figure1_graph):
        s = Schedule(order=[list(range(9)), [0]])
        with pytest.raises(InfeasibleScheduleError):
            s.validate(figure1_graph)

    def test_validate_partial_allows_subsets(self, figure1_graph):
        Schedule(order=[[0, 3]]).validate_partial(figure1_graph)

    def test_validate_partial_rejects_duplicates(self, figure1_graph):
        with pytest.raises(InfeasibleScheduleError):
            Schedule(order=[[0, 0]]).validate_partial(figure1_graph)

    def test_validate_partial_rejects_unknown_ids(self, figure1_graph):
        with pytest.raises(InfeasibleScheduleError):
            Schedule(order=[[99]]).validate_partial(figure1_graph)


class TestPaperFigure1:
    def test_paper_figure1_example(self, figure1_graph):
        """The worked example: M=2, the given σ costs exactly 11 loads."""
        s = Schedule(order=[[0, 1, 4, 3], [2, 5, 8, 7, 6]])
        res = replay_schedule(figure1_graph, s, capacity_items=2, policy="lru")
        assert res.total_loads == 11
        # GPU1 loads D1 twice (the paper's point); GPU2 never reloads.
        assert res.gpus[0].n_loads == 5
        assert res.gpus[1].n_loads == 6

    def test_figure1_gpu2_order_avoids_reloads(self, figure1_graph):
        """T3,T6,T9,T8,T7 snakes through the grid: 6 compulsory loads."""
        s = Schedule.single_gpu([2, 5, 8, 7, 6])
        res = replay_schedule(figure1_graph, s, capacity_items=2)
        assert res.total_loads == 6

    def test_live_set_recursion_matches(self, figure1_graph):
        s = Schedule(order=[[0, 1, 4, 3], [2, 5, 8, 7, 6]])
        res = replay_schedule(figure1_graph, s, capacity_items=2)
        verify_live_set_recursion(figure1_graph, s, res, capacity_items=2)


class TestReplayMechanics:
    def test_unlimited_memory_loads_each_datum_once(self, figure1_graph):
        s = Schedule.single_gpu(list(range(9)))
        res = replay_schedule(figure1_graph, s)
        assert res.total_loads == 6
        assert res.gpus[0].bytes_loaded == 6.0

    def test_capacity_bytes_equivalent_to_items(self, figure1_graph):
        s = Schedule.single_gpu(list(range(9)))
        a = replay_schedule(figure1_graph, s, capacity_items=3)
        b = replay_schedule(figure1_graph, s, capacity_bytes=3.0)
        assert a.total_loads == b.total_loads

    def test_both_capacities_rejected(self, figure1_graph):
        s = Schedule.single_gpu(list(range(9)))
        with pytest.raises(ValueError, match="not both"):
            replay_schedule(
                figure1_graph, s, capacity_items=3, capacity_bytes=3.0
            )

    def test_capacity_items_needs_uniform_sizes(self):
        g = TaskGraph()
        g.add_data(1.0)
        g.add_data(2.0)
        g.add_task([0, 1], flops=1.0)
        with pytest.raises(ValueError, match="uniform"):
            replay_schedule(g, Schedule.single_gpu([0]), capacity_items=2)

    def test_task_exceeding_memory_raises(self, figure1_graph):
        s = Schedule.single_gpu(list(range(9)))
        with pytest.raises(InfeasibleScheduleError, match="capacity"):
            replay_schedule(figure1_graph, s, capacity_items=1)

    def test_current_task_inputs_never_evicted(self, figure1_graph):
        """V(k,i) ∩ D(T_σ(k,i)) = ∅ by construction."""
        s = Schedule.single_gpu(list(range(9)))
        res = replay_schedule(figure1_graph, s, capacity_items=2)
        ev_sets = res.gpus[0].eviction_sets()
        for step, task in enumerate(s.order[0]):
            overlap = set(ev_sets[step]) & set(figure1_graph.inputs_of(task))
            assert not overlap

    def test_live_size_never_exceeds_capacity(self, figure1_graph):
        s = Schedule.single_gpu(list(range(9)))
        res = replay_schedule(figure1_graph, s, capacity_items=3)
        assert max(res.gpus[0].live_sizes) <= 3
        assert res.max_live <= 3

    def test_row_major_with_tight_memory_thrashes_lru(self):
        """n×n grid, M=n: row-major reloads all columns every row."""
        n = 4
        g = TaskGraph()
        rows = [g.add_data(1.0) for _ in range(n)]
        cols = [g.add_data(1.0) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                g.add_task([rows[i], cols[j]], flops=1.0)
        s = Schedule.single_gpu(list(range(n * n)))
        res = replay_schedule(g, s, capacity_items=n, policy="lru")
        # every row needs its row datum + n column reloads
        assert res.total_loads >= n * n

    def test_loads_counted_per_gpu(self, figure1_graph):
        s = Schedule(order=[[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        res = replay_schedule(figure1_graph, s, capacity_items=4)
        assert [g.n_loads for g in res.gpus] == [4, 4, 4]
        assert res.total_loads == 12

    def test_policy_class_accepted(self, figure1_graph):
        s = Schedule.single_gpu(list(range(9)))
        by_class = replay_schedule(
            figure1_graph, s, capacity_items=2, policy=LruPolicy
        )
        by_name = replay_schedule(figure1_graph, s, capacity_items=2)
        assert by_class.policy_name == "lru"
        assert by_class.gpus[0].loads == by_name.gpus[0].loads
        assert by_class.gpus[0].evictions == by_name.gpus[0].evictions

    def test_unknown_policy_name_raises(self, figure1_graph):
        with pytest.raises(ValueError, match="unknown eviction policy"):
            replay_schedule(
                figure1_graph,
                Schedule.single_gpu(list(range(9))),
                capacity_items=2,
                policy="clairvoyant",
            )

    def test_replay_is_deterministic(self, figure1_graph):
        s = Schedule.single_gpu([0, 3, 6, 1, 4, 7, 2, 5, 8])
        a = replay_schedule(figure1_graph, s, capacity_items=2)
        b = replay_schedule(figure1_graph, s, capacity_items=2)
        assert a.gpus[0].loads == b.gpus[0].loads
        assert a.gpus[0].evictions == b.gpus[0].evictions

    def test_bad_policy_choice_detected(self, figure1_graph):
        class Rogue(EvictionPolicy):
            name = "rogue"

            def choose_victim(self, candidates):
                return -42

        with pytest.raises(InfeasibleScheduleError, match="non-candidate"):
            replay_schedule(
                figure1_graph,
                Schedule.single_gpu(list(range(9))),
                capacity_items=2,
                policy=Rogue,
            )


@pytest.mark.parametrize("name", POLICY_NAMES)
def test_every_registered_policy_replays(figure1_graph, name):
    """The replay's view supplies what every policy reads (the task
    buffer for Belady and LUF, the RNG for Random), and no policy beats
    Belady on a fixed order."""
    s = Schedule(order=[[0, 3, 6, 1, 4, 7], [2, 5, 8]])
    res = replay_schedule(figure1_graph, s, capacity_items=2, policy=name)
    assert res.policy_name == name
    verify_live_set_recursion(figure1_graph, s, res, capacity_items=2)
    best = replay_schedule(figure1_graph, s, capacity_items=2, policy="belady")
    assert res.total_loads >= best.total_loads


class TestFifoVsLru:
    def test_fifo_and_lru_may_differ(self):
        """A datum reused late: LRU keeps it, FIFO evicts it first."""
        g = TaskGraph()
        d = [g.add_data(1.0) for _ in range(4)]
        # task order uses: (0,1) (0,2) (0,3) — 0 stays hot
        g.add_task([0, 1], flops=1.0)
        g.add_task([0, 2], flops=1.0)
        g.add_task([0, 3], flops=1.0)
        s = Schedule.single_gpu([0, 1, 2])
        lru = replay_schedule(g, s, capacity_items=2, policy="lru")
        fifo = replay_schedule(g, s, capacity_items=2, policy="fifo")
        assert lru.total_loads == 4  # 0,1 then 2 then 3 (evicting 1, 2)
        assert fifo.total_loads >= lru.total_loads
