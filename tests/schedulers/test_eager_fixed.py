"""Tests for EAGER, FixedSchedule, and the partition scheduler."""

import pytest

from repro.core.schedule import Schedule
from repro.schedulers.eager import Eager
from repro.schedulers.fixed import FixedSchedule
from repro.schedulers.partition import HmetisR
from repro.simulator.runtime import Runtime, simulate
from repro.workloads.matmul2d import matmul2d

from tests.conftest import toy_platform


class TestEager:
    def test_pops_in_submission_order(self, figure1_graph):
        sched = Eager()
        rt = Runtime(figure1_graph, toy_platform(n_gpus=2, memory=4.0), sched)
        sched.prepare(rt.view)
        assert [sched.next_task(0), sched.next_task(1), sched.next_task(0)] == [
            0,
            1,
            2,
        ]

    def test_returns_none_when_drained(self, figure1_graph):
        sched = Eager()
        rt = Runtime(figure1_graph, toy_platform(memory=4.0), sched)
        sched.prepare(rt.view)
        for _ in range(9):
            assert sched.next_task(0) is not None
        assert sched.next_task(0) is None

    def test_row_major_collapse_under_pressure(self):
        """The paper's EAGER pathology: one reload per task once a full
        row of columns no longer fits."""
        n = 8
        g = matmul2d(n, data_size=1.0, task_flops=1.0)
        plat = toy_platform(memory=n // 2, bandwidth=100.0)
        result = simulate(g, plat, Eager())
        assert result.total_loads >= n * n  # ~1 load per task


class TestFixedSchedule:
    def test_no_stealing_keeps_lopsided(self, figure1_graph):
        lopsided = Schedule(order=[list(range(9)), []])
        sched = FixedSchedule(lopsided)
        result = simulate(
            figure1_graph, toy_platform(n_gpus=2, memory=4.0), sched
        )
        assert result.gpus[1].n_tasks == 0

    def test_replays_order_ready_would_change(self, figure1_graph):
        """T8 first, then T0 (which shares no input with it) ahead of
        T7 (which does): Ready would run T7 second, the replay runs T0."""
        order = [8, 0, 7] + list(range(1, 7))
        result = simulate(
            figure1_graph,
            toy_platform(memory=4.0),
            FixedSchedule(Schedule.single_gpu(order)),
        )
        assert result.executed_order[0] == order


class TestHmetisR:
    def test_executes_all_tasks(self):
        g = matmul2d(6, data_size=1.0, task_flops=1.0)
        result = simulate(
            g,
            toy_platform(n_gpus=2, memory=6.0, bandwidth=10.0),
            HmetisR(nruns=2),
        )
        assert sum(s.n_tasks for s in result.gpus) == 36

    def test_partition_result_exposed(self):
        g = matmul2d(4, data_size=1.0, task_flops=1.0)
        sched = HmetisR(nruns=2)
        rt = Runtime(g, toy_platform(n_gpus=2, memory=6.0), sched)
        sched.prepare(rt.view)
        assert sched.partition is not None
        assert sched.partition.k == 2
        assert sched.partition.imbalance < 1.5

    def test_stealing_covers_partition_imbalance(self):
        g = matmul2d(5, data_size=1.0, task_flops=1.0)
        result = simulate(
            g,
            toy_platform(n_gpus=3, memory=6.0, bandwidth=10.0),
            HmetisR(nruns=2),
        )
        assert sum(s.n_tasks for s in result.gpus) == 25
        assert result.balance_ratio() < 2.0

    def test_deterministic_given_seed(self):
        g = matmul2d(5, data_size=1.0, task_flops=1.0)
        parts = []
        for _ in range(2):
            sched = HmetisR(nruns=2, seed=7)
            rt = Runtime(g, toy_platform(n_gpus=2, memory=6.0), sched)
            sched.prepare(rt.view)
            parts.append(sched.partition.parts)
        assert parts[0] == parts[1]
