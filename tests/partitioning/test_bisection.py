"""Tests for multilevel bisection, coarsening and the K-way driver."""

import random

import pytest

from repro.core.problem import TaskGraph
from repro.partitioning.bisection import multilevel_bisect, partition_kway
from repro.partitioning.coarsen import coarsen_to, contract, match_heavy_edge
from repro.partitioning.fm import bisection_cut
from repro.partitioning.hypergraph import Hypergraph
from repro.workloads.matmul2d import matmul2d


def clustered_hypergraph(groups=4, size=6, rng_seed=0):
    """``groups`` dense clusters with weak random bridges."""
    rng = random.Random(rng_seed)
    n = groups * size
    nets, weights = [], []
    for g in range(groups):
        base = g * size
        for _ in range(8):
            pins = tuple(rng.sample(range(base, base + size), 3))
            nets.append(pins)
            weights.append(5.0)
    for _ in range(groups):
        nets.append(tuple(rng.sample(range(n), 2)))
        weights.append(0.5)
    return Hypergraph(n, [1.0] * n, nets, weights)


class TestCoarsening:
    def test_matching_is_symmetric(self):
        h = clustered_hypergraph()
        match = match_heavy_edge(h, random.Random(0))
        for v, u in enumerate(match):
            assert match[u] == v or u == v

    def test_contract_preserves_total_weight(self):
        h = clustered_hypergraph()
        match = match_heavy_edge(h, random.Random(0))
        coarse, cmap = contract(h, match)
        assert coarse.total_vertex_weight == pytest.approx(
            h.total_vertex_weight
        )
        assert len(cmap) == h.n
        assert max(cmap) == coarse.n - 1

    def test_contract_roughly_halves(self):
        h = clustered_hypergraph()
        coarse, _ = contract(h, match_heavy_edge(h, random.Random(0)))
        assert coarse.n <= h.n * 0.75

    def test_coarsen_to_target(self):
        h = clustered_hypergraph(groups=6, size=8)
        levels, maps = coarsen_to(h, 10, random.Random(0))
        assert levels[0] is h
        assert len(maps) == len(levels) - 1
        assert levels[-1].n <= max(10, levels[-2].n * 0.9) or len(levels) == 1


class TestBisect:
    def test_separates_two_clusters(self):
        h = clustered_hypergraph(groups=2, size=8)
        side, cut = multilevel_bisect(h, nruns=5, rng=random.Random(1))
        # the two clusters should end on opposite sides, cutting only
        # the weak bridges
        assert cut <= 1.0 + 1e-9
        first = side[:8]
        second = side[8:]
        assert len(set(first)) == 1 and len(set(second)) == 1
        assert first[0] != second[0]

    def test_balance_respected(self):
        h = clustered_hypergraph(groups=2, size=8)
        side, _ = multilevel_bisect(
            h, ubfactor=5.0, nruns=3, rng=random.Random(0)
        )
        w0 = sum(1 for s in side if s == 0)
        assert 6 <= w0 <= 10

    def test_uneven_target_fraction(self):
        h = clustered_hypergraph(groups=3, size=6)
        side, _ = multilevel_bisect(
            h, target0_frac=1 / 3, ubfactor=8.0, nruns=3, rng=random.Random(0)
        )
        w0 = sum(1 for s in side if s == 0)
        assert 4 <= w0 <= 9  # about a third of 18

    def test_cut_reported_matches_assignment(self):
        h = clustered_hypergraph()
        side, cut = multilevel_bisect(h, nruns=2, rng=random.Random(2))
        assert cut == pytest.approx(bisection_cut(h, side))


class TestSinglePinNet:
    """A net with one pin is legal and can never be cut."""

    def single_pin_hypergraph(self):
        return Hypergraph(4, [1.0] * 4, [(0, 1), (2,), (2, 3)], [1.0] * 3)

    def test_share_is_zero(self):
        assert self.single_pin_hypergraph().share == [1.0, 0.0, 1.0]

    def test_bisect_and_kway_partition(self):
        h = self.single_pin_hypergraph()
        for seed in range(4):
            match = match_heavy_edge(h, random.Random(seed))
            assert match[2] in (2, 3)
            side, cut = multilevel_bisect(
                h, nruns=4, rng=random.Random(seed), coarse_size=2
            )
            assert cut == bisection_cut(h, side) == 0.0
        assert sorted(partition_kway(h, 2, rng=random.Random(0))) == [0, 0, 1, 1]
        assert len(set(partition_kway(h, 3, rng=random.Random(0)))) == 3


class TestKway:
    def test_partition_covers_all_vertices(self):
        h = clustered_hypergraph(groups=4, size=6)
        parts = partition_kway(h, 4, rng=random.Random(0))
        assert len(parts) == h.n
        assert set(parts) == {0, 1, 2, 3}

    def test_k1_is_trivial(self):
        h = clustered_hypergraph()
        assert set(partition_kway(h, 1)) == {0}

    def test_k3_works(self):
        h = clustered_hypergraph(groups=3, size=6)
        parts = partition_kway(h, 3, ubfactor=8.0, rng=random.Random(0))
        sizes = [parts.count(k) for k in range(3)]
        assert all(3 <= s <= 9 for s in sizes)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            partition_kway(clustered_hypergraph(), 0)

    def test_matmul_partition_beats_striping(self):
        """On the 2D matmul, the partitioner should find block structure
        with lower cut than naive row striping."""
        g = matmul2d(8, data_size=1.0, task_flops=1.0)
        h = Hypergraph.from_taskgraph(g)
        parts = partition_kway(h, 2, nruns=5, rng=random.Random(0))
        cut = 0.0
        for d in range(g.n_data):
            sides = {parts[t] for t in g.users_of(d)}
            cut += len(sides) - 1
        # row striping (rows 0-3 vs 4-7) cuts all 8 column data = 8;
        # the partitioner must not do worse
        assert cut <= 8.0
