"""Tests for dependency sets and the Cholesky DAG."""

import pytest

from repro.core.problem import TaskGraph
from repro.dag.deps import CycleError, DependencySet
from repro.dag.workloads import cholesky_dag
from repro.workloads.cholesky import cholesky_tasks


def chain_deps(n):
    return DependencySet(n, [(i, i + 1) for i in range(n - 1)])


class TestDependencySet:
    def test_edges_recorded_both_ways(self):
        d = DependencySet(3, [(0, 2)])
        assert d.preds[2] == {0}
        assert d.succs[0] == {2}
        assert d.n_edges == 1

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            DependencySet(2, [(0, 5)])

    def test_self_edge_rejected(self):
        with pytest.raises(CycleError):
            DependencySet(2, [(1, 1)])

    def test_sources(self):
        d = DependencySet(4, [(0, 2), (1, 2), (2, 3)])
        assert d.sources() == [0, 1]

    def test_indegrees(self):
        d = DependencySet(3, [(0, 2), (1, 2)])
        assert d.indegrees() == [0, 0, 2]

    def test_topological_order_respects_edges(self):
        d = DependencySet(5, [(0, 1), (1, 2), (0, 3), (3, 4)])
        order = d.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for succ in range(5):
            for pred in d.preds[succ]:
                assert pos[pred] < pos[succ]

    def test_cycle_detected(self):
        d = DependencySet(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(CycleError):
            d.topological_order()

    def test_validate_checks_graph_size(self):
        g = TaskGraph()
        datum = g.add_data(1.0)
        g.add_task([datum], flops=1.0)
        with pytest.raises(ValueError, match="covers"):
            DependencySet(5).validate(g)

    def test_critical_path_of_chain(self):
        g = TaskGraph()
        datum = g.add_data(1.0)
        for _ in range(4):
            g.add_task([datum], flops=2.0)
        assert chain_deps(4).critical_path_flops(g) == pytest.approx(8.0)

    def test_critical_path_of_independent_set(self):
        g = TaskGraph()
        datum = g.add_data(1.0)
        for _ in range(4):
            g.add_task([datum], flops=2.0)
        assert DependencySet(4).critical_path_flops(g) == pytest.approx(2.0)


class TestCholeskyDag:
    def test_same_task_set_as_independent_version(self):
        g_dep, _ = cholesky_dag(6)
        g_ind = cholesky_tasks(6)
        assert [t.name for t in g_dep.tasks] == [t.name for t in g_ind.tasks]
        assert [t.inputs for t in g_dep.tasks] == [
            t.inputs for t in g_ind.tasks
        ]

    def test_is_a_dag(self):
        g, deps = cholesky_dag(8)
        deps.validate(g)

    def test_first_potrf_is_the_only_source_of_step0(self):
        g, deps = cholesky_dag(4)
        names = {t.id: t.name for t in g.tasks}
        sources = {names[t] for t in deps.sources()}
        assert "POTRF(0)" in sources
        assert not any(s.startswith("TRSM") for s in sources)

    def test_gemm_waits_for_both_trsms(self):
        g, deps = cholesky_dag(4)
        by_name = {t.name: t.id for t in g.tasks}
        gemm = by_name["GEMM(2,1,0)"]
        assert by_name["TRSM(2,0)"] in deps.preds[gemm]
        assert by_name["TRSM(1,0)"] in deps.preds[gemm]

    def test_potrf_waits_for_prior_syrks(self):
        g, deps = cholesky_dag(4)
        by_name = {t.name: t.id for t in g.tasks}
        assert by_name["SYRK(2,0)"] in deps.preds[by_name["POTRF(2)"]]
        assert by_name["SYRK(2,1)"] in deps.preds[by_name["POTRF(2)"]]

    def test_critical_path_grows_with_n(self):
        g4, d4 = cholesky_dag(4)
        g8, d8 = cholesky_dag(8)
        assert d8.critical_path_flops(g8) > d4.critical_path_flops(g4)
