"""Tests for the hypergraph structure."""

import pytest

from repro.core.problem import TaskGraph
from repro.partitioning.hypergraph import Hypergraph


class TestConstruction:
    def test_pin_lists_built(self):
        h = Hypergraph(3, [1.0] * 3, [(0, 1), (1, 2)], [1.0, 2.0])
        assert h.pins_of[1] == [0, 1]
        assert h.n_nets == 2
        assert h.total_vertex_weight == 3.0

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [1.0], [], [])

    def test_net_weight_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Hypergraph(2, [1.0, 1.0], [(0, 1)], [])

    @pytest.mark.parametrize("weight", [-1.0, float("nan")])
    def test_negative_net_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="non-negative"):
            Hypergraph(2, [1.0, 1.0], [(0, 1)], [weight])

    def test_share_is_weight_over_other_pins(self):
        h = Hypergraph(
            4, [1.0] * 4, [(0, 1, 2, 3), (0, 1, 2), (1,), (2, 3)], [3.0, 4.0, 5.0, 0.5]
        )
        assert h.share == [1.0, 2.0, 0.0, 0.5]

    def test_single_pin_net_adds_no_neighbour(self):
        h = Hypergraph(4, [1.0] * 4, [(0, 1), (2,), (2, 3)], [1.0] * 3)
        assert h.neighbor_weights(2) == {3: 1.0}
        assert h.neighbor_weights(2, exclude=3) == {}

    def test_unknown_pin_rejected(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            Hypergraph(2, [1.0, 1.0], [(0, 5)], [1.0])

    def test_repeated_pin_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            Hypergraph(2, [1.0, 1.0], [(0, 0)], [1.0])


class TestFromTaskGraph:
    def test_one_net_per_shared_datum(self, figure1_graph):
        h = Hypergraph.from_taskgraph(figure1_graph)
        assert h.n == 9
        assert h.n_nets == 6  # every datum has 3 readers

    def test_singleton_nets_dropped(self):
        g = TaskGraph()
        shared = g.add_data(1.0)
        solo = g.add_data(1.0)
        g.add_task([shared, solo], flops=1.0)
        g.add_task([shared], flops=1.0)
        h = Hypergraph.from_taskgraph(g)
        assert h.n_nets == 1  # only the shared datum survives

    def test_flops_weights(self):
        g = TaskGraph()
        d = g.add_data(1.0)
        g.add_task([d], flops=5.0)
        g.add_task([d], flops=7.0)
        h = Hypergraph.from_taskgraph(g, use_flops_weights=True)
        assert h.vwgt == [5.0, 7.0]
        h = Hypergraph.from_taskgraph(g, use_flops_weights=False)
        assert h.vwgt == [1.0, 1.0]

    def test_net_weights_are_data_sizes(self):
        g = TaskGraph()
        d = g.add_data(42.0)
        g.add_task([d], flops=1.0)
        g.add_task([d], flops=1.0)
        h = Hypergraph.from_taskgraph(g)
        assert h.nwgt == [42.0]


class TestNeighborWeights:
    def test_scaled_by_net_size(self, figure1_graph):
        h = Hypergraph.from_taskgraph(figure1_graph)
        # T0 shares a 3-pin net with T1 (row) and with T3 (column):
        # each contributes w/(|net|-1) = 1/2.
        scores = h.neighbor_weights(0)
        assert scores[1] == pytest.approx(0.5)
        assert scores[3] == pytest.approx(0.5)
        assert 4 not in scores  # diagonal neighbour shares nothing

    def test_exclude_parameter(self, figure1_graph):
        h = Hypergraph.from_taskgraph(figure1_graph)
        scores = h.neighbor_weights(0, exclude=1)
        assert 1 not in scores
