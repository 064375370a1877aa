"""Unit tests for the bipartite task/data model."""

import pytest

from repro.core.problem import Data, Task, TaskGraph


class TestConstruction:
    def test_add_data_assigns_dense_ids(self):
        g = TaskGraph()
        d0 = g.add_data(1.0)
        d1 = g.add_data(2.0)
        assert (d0.id, d1.id) == (0, 1)
        assert g.n_data == 2

    def test_add_task_assigns_submission_order_ids(self):
        g = TaskGraph()
        d = g.add_data(1.0)
        t0 = g.add_task([d], flops=1.0)
        t1 = g.add_task([d], flops=1.0)
        assert (t0.id, t1.id) == (0, 1)

    def test_add_task_accepts_data_objects_and_ids(self):
        g = TaskGraph()
        d0, d1 = g.add_data(1.0), g.add_data(1.0)
        t = g.add_task([d0, 1], flops=1.0)
        assert t.inputs == (0, 1)

    def test_data_size_recorded(self):
        g = TaskGraph()
        d = g.add_data(14.75e6, name="A[0]")
        assert d.size == 14.75e6
        assert d.name == "A[0]"

    def test_zero_size_data_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="positive"):
            g.add_data(0.0)

    def test_fractional_size_data_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="whole number of bytes"):
            g.add_data(1.5)
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                g.add_data(bad)
        assert g.n_data == 0

    def test_whole_byte_sizes_accepted(self):
        g = TaskGraph()
        assert g.add_data(2.0).size == 2.0
        assert g.add_data(14.75e6).size == 14.75e6
        assert isinstance(g.add_data(3).size, float)

    def test_negative_flops_rejected(self):
        g = TaskGraph()
        d = g.add_data(1.0)
        with pytest.raises(ValueError, match="positive"):
            g.add_task([d], flops=-1.0)

    def test_empty_inputs_rejected(self):
        g = TaskGraph()
        with pytest.raises(ValueError, match="at least one"):
            g.add_task([], flops=1.0)

    def test_duplicate_inputs_rejected(self):
        g = TaskGraph()
        d = g.add_data(1.0)
        with pytest.raises(ValueError, match="duplicate"):
            g.add_task([d, d], flops=1.0)

    def test_unknown_data_id_rejected(self):
        g = TaskGraph()
        g.add_data(1.0)
        with pytest.raises(ValueError, match="unknown"):
            g.add_task([5], flops=1.0)

    def test_tasks_and_data_are_frozen(self):
        g = TaskGraph()
        d = g.add_data(1.0)
        t = g.add_task([d], flops=1.0)
        with pytest.raises(AttributeError):
            t.flops = 2.0
        with pytest.raises(AttributeError):
            d.size = 2.0


class TestQueries:
    def test_inputs_of(self, figure1_graph):
        # T1 (id 0) reads D1 (id 0) and D4 (id 3)
        assert figure1_graph.inputs_of(0) == (0, 3)

    def test_users_of_in_submission_order(self, figure1_graph):
        # D1 (row 0) is read by T1, T2, T3 = ids 0,1,2
        assert list(figure1_graph.users_of(0)) == [0, 1, 2]

    def test_degree(self, figure1_graph):
        assert all(figure1_graph.degree(d) == 3 for d in range(6))

    def test_footprint_union(self, figure1_graph):
        # T1, T2 together touch D1, D4, D5 = 3 data
        assert figure1_graph.footprint_bytes([0, 1]) == 3.0

    def test_total_flops(self, figure1_graph):
        assert figure1_graph.total_flops == 9.0

    def test_working_set(self, figure1_graph):
        assert figure1_graph.working_set_bytes == 6.0

    def test_uniform_data_size_detected(self, figure1_graph):
        assert figure1_graph.uniform_data_size() == 1.0

    def test_uniform_data_size_none_when_mixed(self):
        g = TaskGraph()
        g.add_data(1.0)
        g.add_data(2.0)
        assert g.uniform_data_size() is None

    def test_max_task_arity(self, figure1_graph):
        assert figure1_graph.max_task_arity() == 2

    def test_len_and_iter(self, figure1_graph):
        assert len(figure1_graph) == 9
        assert [t.id for t in figure1_graph] == list(range(9))

    def test_validate_passes_on_consistent_graph(self, figure1_graph):
        figure1_graph.validate()


class TestDerivedStructures:
    def test_clique_expansion_pairwise_weights(self, chain_graph):
        edges = chain_graph.clique_expansion()
        # consecutive chain tasks share exactly one unit datum
        assert edges[(0, 1)] == 1.0
        assert (0, 2) not in edges

    def test_clique_expansion_triple_counts_shared_data(self):
        """The §IV-B weakness: a datum shared by 3 tasks yields 3 edges."""
        g = TaskGraph()
        d = g.add_data(5.0)
        extra = [g.add_data(1.0) for _ in range(3)]
        for e in extra:
            g.add_task([d, e], flops=1.0)
        edges = g.clique_expansion()
        assert set(edges) == {(0, 1), (0, 2), (1, 2)}
        # total counted weight is 3x the datum's size
        assert sum(edges.values()) == pytest.approx(15.0)

    def test_clique_expansion_keys_are_ordered(self, figure1_graph):
        assert all(a < b for a, b in figure1_graph.clique_expansion())
