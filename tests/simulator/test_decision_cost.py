"""Tests for the virtual decision-cost model (op counts gate task start)."""

import pytest

from repro.schedulers.darts import Darts
from repro.schedulers.eager import Eager
from repro.schedulers.registry import make_scheduler
from repro.simulator.runtime import simulate
from repro.workloads.matmul2d import matmul2d

from tests.conftest import toy_platform


class TestDecisionCostModel:
    def test_zero_cost_disables_gating(self, figure1_graph):
        r = simulate(
            figure1_graph,
            toy_platform(memory=4.0),
            Darts(),
            eviction="luf",
            decision_op_cost=0.0,
        )
        assert r.virtual_decision_time == 0.0

    def test_cost_scales_with_op_price(self, figure1_graph):
        times = []
        for cost in (1e-9, 1e-6):
            r = simulate(
                figure1_graph,
                toy_platform(memory=4.0),
                Darts(),
                eviction="luf",
                decision_op_cost=cost,
                seed=1,
            )
            times.append(r.virtual_decision_time)
        assert times[1] > times[0] > 0.0
        assert times[1] == pytest.approx(times[0] * 1000, rel=1e-6)

    def test_expensive_decisions_extend_makespan(self, figure1_graph):
        cheap = simulate(
            figure1_graph,
            toy_platform(memory=4.0),
            Darts(),
            eviction="luf",
            decision_op_cost=0.0,
            seed=1,
        )
        dear = simulate(
            figure1_graph,
            toy_platform(memory=4.0),
            Darts(),
            eviction="luf",
            decision_op_cost=0.5,  # absurdly slow scheduler
            seed=1,
        )
        assert dear.makespan > cheap.makespan
        assert dear.gflops < cheap.gflops

    def test_negative_cost_rejected(self, figure1_graph):
        with pytest.raises(ValueError):
            simulate(
                figure1_graph,
                toy_platform(memory=4.0),
                Eager(),
                decision_op_cost=-1.0,
            )

    def test_eager_charges_almost_nothing(self, figure1_graph):
        r = simulate(figure1_graph, toy_platform(memory=4.0), Eager())
        # one op per pop: 10 pops x 50 ns
        assert r.virtual_decision_time < 1e-5

    def test_darts_scan_cost_grows_with_instance(self):
        small = matmul2d(4, data_size=1.0, task_flops=1.0)
        large = matmul2d(8, data_size=1.0, task_flops=1.0)
        times = []
        for g in (small, large):
            sched, ev = make_scheduler("darts+luf")
            r = simulate(
                g,
                toy_platform(memory=5.0, bandwidth=10.0),
                sched,
                eviction=ev,
                seed=1,
            )
            times.append(r.virtual_decision_time)
        assert times[1] > times[0]

    def test_opti_charges_fewer_ops_than_full_scan(self):
        g = matmul2d(8, data_size=1.0, task_flops=1.0)
        full = simulate(
            g,
            toy_platform(memory=5.0, bandwidth=10.0),
            Darts(),
            eviction="luf",
            seed=1,
        )
        opti = simulate(
            g,
            toy_platform(memory=5.0, bandwidth=10.0),
            Darts(opti=True),
            eviction="luf",
            seed=1,
        )
        assert opti.virtual_decision_time < full.virtual_decision_time
