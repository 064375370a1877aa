"""Tests for task-level partitioning and the graph-model baseline."""

import random

import pytest

from repro.partitioning.graphpart import clique_graph_partition
from repro.partitioning.interface import cut_weight, partition_tasks
from repro.workloads.matmul2d import matmul2d
from repro.workloads.sparse import sparse_matmul2d


class TestPartitionTasks:
    def test_parts_cover_tasks_exactly_once(self):
        g = matmul2d(6, data_size=1.0, task_flops=1.0)
        res = partition_tasks(g, 3, nruns=3, rng=random.Random(0))
        seen = sorted(t for p in res.parts for t in p)
        assert seen == list(range(g.n_tasks))
        assert res.k == 3

    def test_parts_keep_submission_order(self):
        g = matmul2d(4, data_size=1.0, task_flops=1.0)
        res = partition_tasks(g, 2, nruns=2, rng=random.Random(0))
        for p in res.parts:
            assert p == sorted(p)

    def test_balance_reported(self):
        g = matmul2d(6, data_size=1.0, task_flops=1.0)
        res = partition_tasks(g, 2, nruns=3, rng=random.Random(0))
        assert 1.0 <= res.imbalance <= 1.3

    def test_cut_bytes_consistent(self):
        g = matmul2d(6, data_size=1.0, task_flops=1.0)
        res = partition_tasks(g, 2, nruns=3, rng=random.Random(0))
        assert res.cut_bytes == pytest.approx(cut_weight(g, res.parts))

    def test_k1_has_zero_cut(self):
        g = matmul2d(4, data_size=1.0, task_flops=1.0)
        res = partition_tasks(g, 1)
        assert res.cut_bytes == 0.0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            partition_tasks(matmul2d(3), 0)

    def test_sparse_instance_partitionable(self):
        g = sparse_matmul2d(30, density=0.05, data_size=1.0,
                            task_flops=1.0, seed=1)
        res = partition_tasks(g, 4, nruns=2, rng=random.Random(0))
        assert sorted(t for p in res.parts for t in p) == list(
            range(g.n_tasks)
        )


class TestCutWeight:
    def test_connectivity_minus_one(self, figure1_graph):
        # rows to GPUs: each column datum spans 3 parts -> (3-1)*3 data
        parts = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
        assert cut_weight(figure1_graph, parts) == 6.0

    def test_no_cut_single_part(self, figure1_graph):
        assert cut_weight(figure1_graph, [list(range(9))]) == 0.0


class TestGraphModelBaseline:
    def test_clique_partition_valid(self):
        g = matmul2d(6, data_size=1.0, task_flops=1.0)
        res = clique_graph_partition(g, 2, nruns=3, rng=random.Random(0))
        assert sorted(t for p in res.parts for t in p) == list(
            range(g.n_tasks)
        )

    def test_clique_rejects_bad_k(self):
        with pytest.raises(ValueError):
            clique_graph_partition(matmul2d(3), 0)

    def test_clique_scored_on_true_data_cut(self):
        # The clique graph only steers the optimizer; the reported cut
        # and balance are those of the task graph, as for partition_tasks.
        g = matmul2d(6, data_size=1.0, task_flops=1.0)
        res = clique_graph_partition(g, 3, nruns=3, rng=random.Random(0))
        assert res.cut_bytes == pytest.approx(cut_weight(g, res.parts))
        flops = [sum(g.tasks[t].flops for t in p) for p in res.parts]
        assert res.imbalance == pytest.approx(max(flops) / (sum(flops) / 3))
        for p in res.parts:
            assert p == sorted(p)

    def test_hypergraph_not_worse_on_shared_data(self):
        """§IV-B ablation: on instances with widely-shared data the
        hypergraph model's true cut is at least as good on average."""
        g = matmul2d(8, data_size=1.0, task_flops=1.0)
        hyper = partition_tasks(g, 4, nruns=5, rng=random.Random(1))
        clique = clique_graph_partition(g, 4, nruns=5, rng=random.Random(1))
        assert hyper.cut_bytes <= clique.cut_bytes * 1.25
