"""Tests for Hierarchical Fair Packing and its multi-GPU adaptation."""

import pytest

from repro.core.problem import TaskGraph
from repro.schedulers.hfp import Hfp, Mhfp, balance_packages, hfp_pack
from repro.simulator.runtime import simulate
from repro.workloads.matmul2d import matmul2d
from repro.workloads.sparse import sparse_matmul2d

from tests.conftest import toy_platform


class TestPacking:
    def test_packages_cover_tasks_exactly_once(self):
        g = matmul2d(5, data_size=1.0, task_flops=1.0)
        packages = hfp_pack(g, memory_bytes=6.0, k_packages=2)
        assert sorted(t for p in packages for t in p) == list(range(25))
        assert len(packages) == 2

    def test_single_package(self):
        g = matmul2d(4, data_size=1.0, task_flops=1.0)
        packages = hfp_pack(g, memory_bytes=4.0, k_packages=1)
        assert len(packages) == 1
        assert sorted(packages[0]) == list(range(16))

    def test_merges_data_sharing_tasks_together(self):
        """Tasks of the same grid row share a datum: they should end up
        adjacent in some package, not scattered."""
        g = matmul2d(4, data_size=1.0, task_flops=1.0)
        packages = hfp_pack(g, memory_bytes=4.0, k_packages=2)
        # count row changes along each package; a locality-aware pack
        # changes row far less often than random order would
        switches = 0
        total = 0
        for p in packages:
            for a, b in zip(p, p[1:]):
                total += 1
                if a // 4 != b // 4 and a % 4 != b % 4:
                    switches += 1
        assert switches <= total * 0.5

    def test_more_packages_than_tasks(self):
        g = TaskGraph()
        d = g.add_data(1.0)
        g.add_task([d], flops=1.0)
        packages = hfp_pack(g, memory_bytes=2.0, k_packages=3)
        assert len(packages) == 3
        assert sorted(t for p in packages for t in p) == [0]

    def test_disconnected_tasks_still_pack(self):
        g = sparse_matmul2d(20, density=0.03, data_size=1.0,
                            task_flops=1.0, seed=2)
        packages = hfp_pack(g, memory_bytes=4.0, k_packages=4)
        assert sorted(t for p in packages for t in p) == list(
            range(g.n_tasks)
        )

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            hfp_pack(matmul2d(2), memory_bytes=100.0, k_packages=0)


class TestBalancing:
    def test_moves_tail_tasks_to_lightest(self):
        g = matmul2d(3, data_size=1.0, task_flops=1.0)  # 9 unit tasks
        packages = [[0, 1, 2, 3, 4, 5, 6], [7, 8]]
        balanced = balance_packages(packages, g)
        sizes = sorted(len(p) for p in balanced)
        assert sizes == [4, 5]

    def test_tail_tasks_are_the_ones_moved(self):
        g = matmul2d(3, data_size=1.0, task_flops=1.0)
        packages = [[0, 1, 2, 3, 4, 5, 6], [7, 8]]
        balanced = balance_packages(packages, g)
        # the head of the big package is untouched
        assert balanced[0][:4] == [0, 1, 2, 3]
        # moved tasks are appended at the end of the small package
        assert balanced[1][:2] == [7, 8]

    def test_already_balanced_untouched(self):
        g = matmul2d(2, data_size=1.0, task_flops=1.0)
        packages = [[0, 1], [2, 3]]
        assert balance_packages(packages, g) == [[0, 1], [2, 3]]

    def test_single_package_untouched(self):
        g = matmul2d(2, data_size=1.0, task_flops=1.0)
        assert balance_packages([[0, 1, 2, 3]], g) == [[0, 1, 2, 3]]

    def test_heterogeneous_flops_balanced_by_load(self):
        g = TaskGraph()
        d = g.add_data(1.0)
        g.add_task([d], flops=10.0)  # heavy
        for _ in range(5):
            g.add_task([d], flops=1.0)
        balanced = balance_packages([[0], [1, 2, 3, 4, 5]], g)
        loads = [sum(g.tasks[t].flops for t in p) for p in balanced]
        assert max(loads) <= 10.0  # the heavy task alone caps the max

    def test_no_task_lost_or_duplicated(self):
        g = matmul2d(4, data_size=1.0, task_flops=1.0)
        packages = [[*range(12)], [*range(12, 16)]]
        balanced = balance_packages(packages, g)
        assert sorted(t for p in balanced for t in p) == list(range(16))


class TestSchedulers:
    def test_mhfp_runs_and_balances(self):
        g = matmul2d(6, data_size=1.0, task_flops=1.0)
        result = simulate(
            g, toy_platform(n_gpus=2, memory=6.0, bandwidth=10.0), Mhfp()
        )
        assert sum(s.n_tasks for s in result.gpus) == 36
        assert result.balance_ratio() < 1.5

    def test_hfp_single_gpu(self):
        g = matmul2d(4, data_size=1.0, task_flops=1.0)
        result = simulate(g, toy_platform(memory=4.0, bandwidth=10.0), Hfp())
        assert result.gpus[0].n_tasks == 16

    def test_mhfp_loads_far_below_eager_under_pressure(self):
        from repro.schedulers.eager import Eager

        g = matmul2d(8, data_size=1.0, task_flops=1.0)
        plat = toy_platform(n_gpus=1, memory=4.0, bandwidth=100.0)
        eager = simulate(g, plat, Eager())
        mhfp = simulate(g, plat, Mhfp())
        assert mhfp.total_loads < eager.total_loads

    def test_packages_accessor(self):
        g = matmul2d(4, data_size=1.0, task_flops=1.0)
        sched = Mhfp()
        from repro.simulator.runtime import Runtime

        rt = Runtime(g, toy_platform(n_gpus=2, memory=6.0), sched)
        sched.prepare(rt.view)
        pk = sched.allocation()
        assert sorted(t for p in pk for t in p) == list(range(16))

    def test_names(self):
        assert Mhfp().name == "mHFP"
        assert Hfp().name == "HFP"
