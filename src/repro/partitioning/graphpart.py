"""METIS-style clique-expansion graph partitioner (baseline).

The paper (§IV-B) explains why modelling data sharing as a plain graph is
inferior: a datum shared by tasks ``Ta, Tb, Tc`` becomes three weighted
edges, so its weight is counted three times by the partitioner.  This
module reproduces that baseline — the clique expansion is partitioned by
the very same multilevel machinery (every edge is a 2-pin net) — so the
hypergraph-vs-graph ablation isolates the *model*, not the optimizer.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.core.problem import TaskGraph
from repro.partitioning.hypergraph import Hypergraph
from repro.partitioning.interface import PartitionResult, kway_task_partition


def clique_graph_partition(
    graph: TaskGraph,
    k: int,
    ubfactor: float = 1.0,
    nruns: int = 10,
    rng: Optional[random.Random] = None,
    use_flops_weights: bool = True,
) -> PartitionResult:
    """Partition via the pairwise-shared-weight graph of §IV-B."""
    edges = graph.clique_expansion()
    nets = list(edges)
    weights = [edges[pair] for pair in nets]
    vwgt = (
        [t.flops for t in graph.tasks]
        if use_flops_weights
        else [1.0] * graph.n_tasks
    )
    h = Hypergraph(graph.n_tasks, vwgt, nets, weights)
    return kway_task_partition(graph, h, k, ubfactor, nruns, rng)
