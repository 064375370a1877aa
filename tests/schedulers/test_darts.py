"""Tests for DARTS (Algorithm 5) and its coupling with LUF (Algorithm 6)."""

import pytest

from repro.schedulers.darts import Darts
from repro.simulator.faults import DeviceFailure, FaultPlan
from repro.simulator.runtime import Runtime, simulate
from repro.workloads.matmul2d import matmul2d
from repro.workloads.matmul3d import matmul3d

from tests.conftest import toy_platform


def darts_on(graph, n_gpus=1, memory=4.0, **kw):
    sched = Darts(**kw)
    rt = Runtime(graph, toy_platform(n_gpus=n_gpus, memory=memory), sched)
    sched.prepare(rt.view)
    return rt, sched


class TestFreeTaskSelection:
    def test_counts_free_tasks_correctly(self, figure1_graph):
        rt, sched = darts_on(figure1_graph)
        # preload column datum D4 (id 3): tasks T0,T3,T6 each still miss
        # their row datum, so e.g. loading row D1 (0) frees exactly T0.
        rt.memories[0].request(3)
        rt.engine.run()
        sched.on_fetch_issued(0, 3)
        sched.on_data_loaded(0, 3)
        assert len(sched._free_by_datum[0][0]) == 1

    def test_refill_prefers_most_enabling_datum(self, figure1_graph):
        rt, sched = darts_on(figure1_graph, memory=6.0)
        # preload all three column data: any row datum now frees 3 tasks
        for d in (3, 4, 5):
            rt.memories[0].request(d)
        rt.engine.run()
        for d in (3, 4, 5):
            sched.on_fetch_issued(0, d)
            sched.on_data_loaded(0, d)
        task = sched.next_task(0)
        assert task is not None
        # all tasks of that row were planned together
        assert len(sched.planned_tasks(0)) == 2

    def test_random_fallback_when_nothing_free(self, figure1_graph):
        rt, sched = darts_on(figure1_graph)
        # empty memory: every task needs 2 loads; base DARTS picks a
        # random task and claims its inputs
        task = sched.next_task(0)
        assert task is not None
        for d in figure1_graph.inputs_of(task):
            assert d not in sched._data_not_in_mem[0]

    def test_all_tasks_handed_out_exactly_once(self, figure1_graph):
        rt, sched = darts_on(figure1_graph, memory=6.0)
        seen = []
        while True:
            t = sched.next_task(0)
            if t is None:
                break
            seen.append(t)
        assert sorted(seen) == list(range(9))

    def test_none_when_exhausted(self, figure1_graph):
        rt, sched = darts_on(figure1_graph, memory=6.0)
        for _ in range(9):
            sched.next_task(0)
        assert sched.next_task(0) is None


class TestEvictionCoupling:
    def test_eviction_unplans_dependent_tasks(self, figure1_graph):
        rt, sched = darts_on(figure1_graph, memory=6.0)
        for d in (3, 4, 5):
            rt.memories[0].request(d)
        rt.engine.run()
        for d in (3, 4, 5):
            sched.on_fetch_issued(0, d)
            sched.on_data_loaded(0, d)
        first = sched.next_task(0)
        planned_before = set(sched.planned_tasks(0))
        assert planned_before
        # evict the row datum that the planned tasks depend on
        row = [d for d in figure1_graph.inputs_of(first) if d < 3][0]
        sched.on_data_evicted(0, row)
        assert row in sched._data_not_in_mem[0]
        # planned tasks that needed the victim went back to the pool
        for t in planned_before:
            if row in figure1_graph.inputs_of(t):
                assert t in sched._unowned
                assert t not in sched.planned_tasks(0)

    def test_unplanned_tasks_can_go_to_other_gpu(self, figure1_graph):
        rt, sched = darts_on(figure1_graph, n_gpus=2, memory=6.0)
        for d in (3, 4, 5):
            rt.memories[0].request(d)
        rt.engine.run()
        for d in (3, 4, 5):
            sched.on_fetch_issued(0, d)
            sched.on_data_loaded(0, d)
        sched.next_task(0)
        planned = list(sched.planned_tasks(0))
        row = next(iter(set(figure1_graph.inputs_of(planned[0])) - {3, 4, 5}))
        sched.on_data_evicted(0, row)
        # GPU1 can now claim the released tasks
        claimed = []
        while True:
            t = sched.next_task(1)
            if t is None:
                break
            claimed.append(t)
        assert set(planned) <= set(claimed) | set(sched.planned_tasks(1))

    def test_data_loaded_syncs_candidate_set(self, figure1_graph):
        rt, sched = darts_on(figure1_graph)
        assert 2 in sched._data_not_in_mem[0]
        sched.on_fetch_issued(0, 2)
        sched.on_data_loaded(0, 2)
        assert 2 not in sched._data_not_in_mem[0]


class TestDeviceLoss:
    def test_returned_tasks_have_not_run(self):
        """A device loss returns the dead GPU's requeued and planned
        tasks to the pool; none of them has completed, and each then
        runs exactly once on the survivor."""
        graph = matmul2d(6, data_size=1.0, task_flops=1.0)
        platform = toy_platform(n_gpus=2, memory=6.0, bandwidth=2.0)
        returned = []

        class Watched(Darts):
            def on_device_lost(self, gpu, requeued):
                tasks = (*requeued, *self._planned[gpu])
                done = {t for order in rt.executed_order for t in order}
                assert not done & set(tasks)
                returned.extend(tasks)
                super().on_device_lost(gpu, requeued)
                assert set(tasks) <= self._unowned

        plan = FaultPlan(device_failures=(DeviceFailure(gpu=0, time=6.6),))
        rt = Runtime(graph, platform, Watched(), seed=0, faults=plan)
        result = rt.run()
        assert len(returned) == 4, "requeued and planned tasks must return"
        executed = [t for order in result.executed_order for t in order]
        assert sorted(executed) == list(range(graph.n_tasks))
        assert set(returned) <= set(result.executed_order[1])


class TestVariants:
    def test_names(self):
        assert Darts().name == "DARTS"
        assert Darts(opti=True).name == "DARTS+OPTI"
        assert Darts(three_inputs=True).name == "DARTS-3inputs"
        assert Darts(threshold=5).name == "DARTS+threshold"

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            Darts(threshold=0)

    def test_three_inputs_picks_two_load_task(self):
        """With 3-input tasks and one datum resident, the 3inputs
        variant finds a task needing exactly two more loads instead of
        drawing at random."""
        g = matmul3d(2, data_size=1.0, task_flops=1.0)
        sched = Darts(three_inputs=True)
        rt = Runtime(g, toy_platform(memory=8.0), sched)
        sched.prepare(rt.view)
        # preload C[0,0] (the 3rd input of tasks P[0,0,k])
        c00 = [d.id for d in g.data if d.name == "C[0,0]"][0]
        rt.memories[0].request(c00)
        rt.engine.run()
        sched.on_fetch_issued(0, c00)
        sched.on_data_loaded(0, c00)
        task = sched.next_task(0)
        assert c00 in g.inputs_of(task)

    def test_opti_and_full_scan_both_complete(self):
        g = matmul2d(5, data_size=1.0, task_flops=1.0)
        for opti in (False, True):
            result = simulate(
                g,
                toy_platform(memory=4.0, bandwidth=10.0),
                Darts(opti=opti),
                eviction="luf",
                seed=2,
            )
            assert result.gpus[0].n_tasks == 25

    def test_threshold_limits_scan(self, figure1_graph):
        rt, sched = darts_on(figure1_graph, memory=6.0, threshold=1)
        t = sched.next_task(0)
        assert t is not None  # still functional with a tiny scan budget

    def test_all_variants_execute_full_workload(self):
        g = matmul2d(6, data_size=1.0, task_flops=1.0)
        for kw in (
            {},
            {"opti": True},
            {"three_inputs": True},
            {"threshold": 3},
            {"opti": True, "three_inputs": True},
        ):
            result = simulate(
                g,
                toy_platform(n_gpus=2, memory=5.0, bandwidth=10.0),
                Darts(**kw),
                eviction="luf",
                seed=1,
            )
            assert sum(s.n_tasks for s in result.gpus) == 36


class TestMultiGpuDisjointness:
    def test_gpus_own_disjoint_task_sets(self, figure1_graph):
        result = simulate(
            figure1_graph,
            toy_platform(n_gpus=2, memory=4.0, bandwidth=10.0),
            Darts(),
            eviction="luf",
            seed=3,
        )
        a, b = result.executed_order
        assert not (set(a) & set(b))
        assert sorted(a + b) == list(range(9))
