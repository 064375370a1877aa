"""Hypergraph structure for task partitioning.

Vertices are tasks (weighted by flops, so balance means compute balance);
nets (hyperedges) are data, each spanning the tasks that read it and
weighted by the datum's size — cutting a net means replicating that datum
on every part it spans.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.problem import TaskGraph


class Hypergraph:
    """Immutable pin-list hypergraph."""

    def __init__(
        self,
        n_vertices: int,
        vertex_weights: Sequence[float],
        nets: Sequence[Tuple[int, ...]],
        net_weights: Sequence[float],
    ) -> None:
        if len(vertex_weights) != n_vertices:
            raise ValueError("vertex_weights length mismatch")
        if len(nets) != len(net_weights):
            raise ValueError("net_weights length mismatch")
        # FM's early stop bounds later cuts below by the nets that must
        # stay cut, which holds only if no net weight is negative
        if any(not w >= 0 for w in net_weights):
            raise ValueError("net weights must be non-negative")
        self.n = n_vertices
        self.vwgt = list(vertex_weights)
        self.nets: List[Tuple[int, ...]] = [tuple(p) for p in nets]
        self.nwgt = list(net_weights)
        # heavy-edge share of each net, w(net)/(|net|-1) (standard hMETIS
        # scaling so huge nets do not dominate matching); a single-pin
        # net joins no pair of vertices
        self.share = [
            w / (len(p) - 1) if len(p) > 1 else 0.0
            for p, w in zip(self.nets, self.nwgt)
        ]
        # vertex -> incident net ids
        self.pins_of: List[List[int]] = [[] for _ in range(n_vertices)]
        for e, pins in enumerate(self.nets):
            seen = set()
            for v in pins:
                if v < 0 or v >= n_vertices:
                    raise ValueError(f"net {e} pins unknown vertex {v}")
                if v in seen:
                    raise ValueError(f"net {e} repeats vertex {v}")
                seen.add(v)
                self.pins_of[v].append(e)

    @property
    def n_nets(self) -> int:
        return len(self.nets)

    @property
    def total_vertex_weight(self) -> float:
        return sum(self.vwgt)

    @classmethod
    def from_taskgraph(
        cls, graph: TaskGraph, use_flops_weights: bool = True
    ) -> "Hypergraph":
        """One net per datum over its reader tasks (paper Algorithm 3, l.1-2).

        Data with a single reader can never be cut and are dropped; the
        partitioner is faster and the cut metric unchanged.
        """
        nets: List[Tuple[int, ...]] = []
        weights: List[float] = []
        for d in range(graph.n_data):
            users = graph.users_of(d)
            if len(users) >= 2:
                nets.append(tuple(users))
                weights.append(graph.data[d].size)
        vwgt = (
            [t.flops for t in graph.tasks]
            if use_flops_weights
            else [1.0] * graph.n_tasks
        )
        return cls(graph.n_tasks, vwgt, nets, weights)

    def neighbor_weights(self, v: int, exclude: int = -1) -> Dict[int, float]:
        """Heavy-edge scores: for each neighbour ``u`` of ``v``, the summed
        :attr:`share` of their shared nets."""
        scores: Dict[int, float] = {}
        for e in self.pins_of[v]:
            share = self.share[e]
            for u in self.nets[e]:
                if u != v and u != exclude:
                    scores[u] = scores.get(u, 0.0) + share
        return scores
