"""Tests for the Ready reordering lists and task stealing."""

from repro.schedulers.eager import Eager
from repro.schedulers.ready import ReadyLists
from repro.simulator.runtime import Runtime
from repro.workloads.matmul2d import matmul2d

from tests.conftest import toy_platform


def make_view(graph, n_gpus=1, memory=4.0):
    """A real RuntimeView over an idle runtime (no events fired)."""
    rt = Runtime(graph, toy_platform(n_gpus=n_gpus, memory=memory), Eager())
    return rt, rt.view


def ready_lists(view, tasks):
    """One GPU's list holding ``tasks``, with Ready's buckets built."""
    lists = ReadyLists(1)
    lists.enable_incremental(view)
    lists.assign(0, tasks)
    return lists


class TestPopReady:
    def test_prefers_task_with_data_resident(self, figure1_graph):
        rt, view = make_view(figure1_graph, memory=4.0)
        # preload D1 (0) and D4 (3) = inputs of T0
        rt.memories[0].request(0)
        rt.memories[0].request(3)
        rt.engine.run()
        lists = ready_lists(view, [8, 4, 0])  # T0 last in the list
        assert lists.pop_ready(0, view) == 0
        assert lists.last_scanned == 3  # T0 misses nothing

    def test_counts_fetching_data_as_available(self, figure1_graph):
        rt, view = make_view(figure1_graph, memory=4.0)
        rt.memories[0].request(0)  # fetch in flight, not yet present
        lists = ready_lists(view, [4, 0])
        # T0 misses only D3; T4 misses both its inputs
        assert lists.pop_ready(0, view) == 0
        assert lists.last_scanned == 2  # a missing task: the whole list

    def test_fetch_after_build_moves_the_choice(self, figure1_graph):
        rt, view = make_view(figure1_graph, memory=4.0)
        lists = ready_lists(view, [4, 0])
        for d in (0, 3):  # T0's inputs join the held set
            rt.memories[0].request(d)
            lists.on_fetch_issued(0, d)
        assert lists.pop_ready(0, view) == 0
        lists.check_incremental(view)

    def test_tie_goes_to_list_position(self, figure1_graph):
        rt, view = make_view(figure1_graph)
        lists = ready_lists(view, [5, 2, 7])  # all equally missing
        assert lists.pop_ready(0, view) == 5
        assert lists.pop_ready(0, view) == 2

    def test_pop_ready_empty_returns_none(self, figure1_graph):
        rt, view = make_view(figure1_graph)
        lists = ready_lists(view, [])
        assert lists.pop_ready(0, view) is None
        assert lists.last_scanned == 0

    def test_pop_fifo_order(self):
        lists = ReadyLists(1)
        lists.assign(0, [3, 1, 2])
        assert [lists.pop_fifo(0) for _ in range(4)] == [3, 1, 2, None]

    def test_remaining_view(self):
        lists = ReadyLists(2)
        lists.assign(0, [1, 2])
        assert lists.lists[0] == [1, 2]


class TestStealing:
    def test_steals_half_from_most_loaded_tail(self):
        lists = ReadyLists(2)
        lists.assign(0, [0, 1, 2, 3, 4, 5])
        assert lists.steal_half(1) is True
        assert lists.lists[0] == [0, 1, 2]
        assert lists.lists[1] == [3, 4, 5]

    def test_steals_from_the_most_loaded(self):
        lists = ReadyLists(3)
        lists.assign(0, [0, 1])
        lists.assign(1, [2, 3, 4, 5])
        lists.steal_half(2)
        assert lists.lists[1] == [2, 3]
        assert lists.lists[2] == [4, 5]

    def test_steals_single_remaining_task(self):
        lists = ReadyLists(2)
        lists.assign(0, [7])
        assert lists.steal_half(1) is True
        assert lists.lists[1] == [7]
        assert lists.lists[0] == []

    def test_nothing_to_steal(self):
        lists = ReadyLists(2)
        assert lists.steal_half(0) is False

    def test_never_steals_from_self(self):
        lists = ReadyLists(2)
        lists.assign(0, [1, 2, 3])
        assert lists.steal_half(0) is False
