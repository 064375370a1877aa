"""Integration tests for the StarPU-like runtime."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.schedule import Schedule
from repro.schedulers.eager import Eager
from repro.schedulers.fixed import FixedSchedule
from repro.simulator.runtime import Runtime, simulate
from repro.workloads.matmul2d import matmul2d
from repro.workloads.randomgraph import random_bipartite

from tests.conftest import toy_platform


def unit_graph(n_tasks=4, n_data=4, arity=2, seed=0):
    return random_bipartite(
        n_tasks, n_data, arity=arity, data_size=1.0, task_flops=1.0, seed=seed
    )


class TestBasicExecution:
    def test_all_tasks_execute_exactly_once(self, figure1_graph):
        result = simulate(
            figure1_graph, toy_platform(memory=4.0), Eager(), seed=0
        )
        executed = [t for order in result.executed_order for t in order]
        assert sorted(executed) == list(range(9))
        assert sum(g.n_tasks for g in result.gpus) == 9

    def test_makespan_at_least_compute_bound(self, figure1_graph):
        # 9 unit tasks at 1 flop/s on one toy GPU: >= 9 seconds
        result = simulate(
            figure1_graph, toy_platform(memory=6.0), Eager(), seed=0
        )
        assert result.makespan >= 9.0

    def test_makespan_at_least_transfer_bound(self, figure1_graph):
        # 6 unit data over a 1 B/s bus: >= 6 seconds regardless of order
        result = simulate(
            figure1_graph, toy_platform(memory=6.0, gflops=1000.0), Eager()
        )
        assert result.makespan >= 6.0

    def test_unlimited_memory_loads_compulsory_only(self, figure1_graph):
        result = simulate(
            figure1_graph, toy_platform(memory=100.0), Eager(), seed=0
        )
        assert result.total_loads == 6
        assert result.total_evictions == 0

    def test_flops_accounted(self, figure1_graph):
        result = simulate(figure1_graph, toy_platform(memory=6.0), Eager())
        assert result.total_flops == 9.0
        assert sum(g.flops for g in result.gpus) == 9.0

    def test_single_input_tasks(self):
        g = unit_graph(n_tasks=5, n_data=3, arity=1)
        result = simulate(g, toy_platform(memory=2.0), Eager())
        assert sum(s.n_tasks for s in result.gpus) == 5


class TestMemoryPressure:
    def test_constrained_memory_causes_evictions(self, figure1_graph):
        result = simulate(
            figure1_graph, toy_platform(memory=2.0), Eager(), seed=0
        )
        assert result.total_evictions > 0
        assert result.total_loads > 6

    def test_loads_match_bytes(self, figure1_graph):
        result = simulate(figure1_graph, toy_platform(memory=2.0), Eager())
        assert result.total_bytes == pytest.approx(float(result.total_loads))

    def test_window_one_works(self, figure1_graph):
        result = simulate(
            figure1_graph, toy_platform(memory=2.0), Eager(), window=1
        )
        assert sum(g.n_tasks for g in result.gpus) == 9

    def test_invalid_window_rejected(self, figure1_graph):
        with pytest.raises(ValueError, match="window"):
            simulate(figure1_graph, toy_platform(), Eager(), window=0)

    def test_task_bigger_than_memory_raises(self):
        g = unit_graph(n_tasks=2, n_data=4, arity=4)
        from repro.simulator.memory import MemoryFullError

        with pytest.raises(MemoryFullError):
            simulate(g, toy_platform(memory=2.0), Eager())


class TestMultiGpu:
    def test_work_is_distributed(self, figure1_graph):
        result = simulate(
            figure1_graph, toy_platform(n_gpus=3, memory=4.0), Eager()
        )
        assert all(g.n_tasks > 0 for g in result.gpus)

    def test_multi_gpu_faster_than_single(self):
        g = matmul2d(6, data_size=1.0, task_flops=1.0)
        slow = simulate(g, toy_platform(n_gpus=1, memory=12.0, bandwidth=50.0), Eager())
        fast = simulate(g, toy_platform(n_gpus=4, memory=12.0, bandwidth=50.0), Eager())
        assert fast.makespan < slow.makespan

    def test_per_gpu_loads_recorded(self, figure1_graph):
        result = simulate(
            figure1_graph, toy_platform(n_gpus=2, memory=4.0), Eager()
        )
        assert result.total_loads == sum(g.n_loads for g in result.gpus)
        assert result.total_loads >= 6


class TestDeterminism:
    def test_same_seed_same_trace(self):
        g = unit_graph(n_tasks=20, n_data=8, arity=2, seed=3)
        a = simulate(g, toy_platform(n_gpus=2, memory=4.0), Eager(), seed=5)
        b = simulate(g, toy_platform(n_gpus=2, memory=4.0), Eager(), seed=5)
        assert a.makespan == b.makespan
        assert a.executed_order == b.executed_order
        assert a.total_loads == b.total_loads

    def test_fair_and_fifo_bus_both_complete(self, figure1_graph):
        for model in ("fair", "fifo"):
            result = simulate(
                figure1_graph,
                toy_platform(memory=3.0, model=model),
                Eager(),
            )
            assert sum(g.n_tasks for g in result.gpus) == 9


class TestTraceAndStats:
    def test_trace_records_lifecycle(self, figure1_graph):
        result = simulate(
            figure1_graph,
            toy_platform(memory=2.0),
            Eager(),
            record_trace=True,
        )
        trace = result.trace
        assert trace is not None
        assert len(trace.of_kind("task_start")) == 9
        assert len(trace.of_kind("task_end")) == 9
        assert len(trace.of_kind("fetch_end")) == result.total_loads
        assert len(trace.of_kind("evict")) == result.total_evictions

    def test_trace_disabled_by_default(self, figure1_graph):
        result = simulate(figure1_graph, toy_platform(memory=2.0), Eager())
        assert result.trace is None

    def test_trace_times_monotonic_per_kind(self, figure1_graph):
        result = simulate(
            figure1_graph,
            toy_platform(memory=2.0),
            Eager(),
            record_trace=True,
        )
        times = [e.time for e in result.trace.of_kind("task_end")]
        assert times == sorted(times)

    def test_busy_time_le_makespan(self, figure1_graph):
        result = simulate(figure1_graph, toy_platform(memory=4.0), Eager())
        for k, g in enumerate(result.gpus):
            assert g.busy_time <= result.makespan + 1e-9
            assert 0.0 <= result.utilization(k) <= 1.0

    def test_summary_renders(self, figure1_graph):
        result = simulate(figure1_graph, toy_platform(memory=4.0), Eager())
        text = result.summary()
        assert "EAGER" in text and "GFlop/s" in text


class TestFixedScheduleBridge:
    def test_fixed_schedule_executes_given_order(self, figure1_graph):
        order = [[0, 1, 4, 3], [2, 5, 8, 7, 6]]
        sched = FixedSchedule(Schedule(order=[list(o) for o in order]))
        result = simulate(
            figure1_graph, toy_platform(n_gpus=2, memory=2.0), sched, window=1
        )
        assert result.executed_order == order

    @given(
        st.integers(3, 10),
        st.integers(2, 20),
        st.integers(1, 3),
        st.integers(0, 9999),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_fixed_schedule_matches_analytic_loads(
        self, n_data, n_tasks, arity, seed, data
    ):
        """window=1, LRU: the simulator's loads equal the analytic replay
        of the same order, both driving :class:`LruPolicy`."""
        from repro.core.schedule import replay_schedule

        graph = unit_graph(n_tasks, n_data, arity=arity, seed=seed)
        memory = data.draw(st.integers(arity, n_data + 1))
        order = data.draw(st.permutations(range(n_tasks)))
        result = simulate(
            graph,
            toy_platform(memory=float(memory)),
            FixedSchedule(Schedule.single_gpu(order)),
            eviction="lru",
            window=1,
        )
        analytic = replay_schedule(
            graph,
            Schedule.single_gpu(order),
            capacity_items=memory,
            policy="lru",
        )
        assert result.total_loads == analytic.total_loads

    def test_gpu_count_mismatch_rejected(self, figure1_graph):
        sched = FixedSchedule(Schedule.single_gpu(list(range(9))))
        with pytest.raises(ValueError, match="GPUs"):
            simulate(figure1_graph, toy_platform(n_gpus=2, memory=4.0), sched)
