"""Heavy-edge matching coarsening for the multilevel partitioner.

Each coarsening level pairs vertices connected by the heaviest shared
nets and contracts the pairs, roughly halving the vertex count while
preserving the cut structure.  Nets are projected onto the coarse
vertices; nets collapsing to a single coarse vertex disappear, and
identical coarse nets are merged with summed weights.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.partitioning.hypergraph import Hypergraph


def match_heavy_edge(h: Hypergraph, rng: random.Random) -> List[int]:
    """Greedy matching: ``match[v]`` is v's partner (or v if unmatched)."""
    order = list(range(h.n))
    rng.shuffle(order)
    match = [-1] * h.n
    nets, shares = h.nets, h.share
    for v in order:
        if match[v] != -1:
            continue
        # ``Hypergraph.neighbor_weights`` restricted to unmatched
        # neighbours: each score is the same float sum, in the same order
        scores: Dict[int, float] = {}
        for e in h.pins_of[v]:
            share = shares[e]
            for u in nets[e]:
                if match[u] == -1 and u != v:
                    scores[u] = scores.get(u, 0.0) + share
        best_u, best_s = -1, -1.0
        for u, s in scores.items():
            if s > best_s or (s == best_s and u < best_u):
                best_u, best_s = u, s
        if best_u != -1:
            match[v] = best_u
            match[best_u] = v
        else:
            match[v] = v
    return match


def contract(
    h: Hypergraph, match: List[int]
) -> Tuple[Hypergraph, List[int]]:
    """Contract matched pairs; returns (coarse hypergraph, fine→coarse map)."""
    cmap = [-1] * h.n
    nc = 0
    for v in range(h.n):
        if cmap[v] != -1:
            continue
        u = match[v]
        cmap[v] = nc
        if u != v and cmap[u] == -1:
            cmap[u] = nc
        nc += 1
    cwgt = [0.0] * nc
    for v in range(h.n):
        cwgt[cmap[v]] += h.vwgt[v]

    merged: Dict[Tuple[int, ...], float] = {}
    for e, pins in enumerate(h.nets):
        cpins = tuple(sorted({cmap[v] for v in pins}))
        if len(cpins) < 2:
            continue
        merged[cpins] = merged.get(cpins, 0.0) + h.nwgt[e]
    nets = list(merged.keys())
    weights = [merged[p] for p in nets]
    return Hypergraph(nc, cwgt, nets, weights), cmap


def coarsen_to(
    h: Hypergraph,
    target_vertices: int,
    rng: random.Random,
    max_levels: int = 30,
) -> Tuple[List[Hypergraph], List[List[int]]]:
    """Build the coarsening chain down to ``target_vertices``.

    Returns ``(levels, maps)`` where ``levels[0]`` is the input hypergraph
    and ``maps[i]`` maps level-``i`` vertices to level-``i+1`` vertices.
    Stops early when a level shrinks by less than 10 % (structure
    exhausted — e.g. no data sharing left to contract).
    """
    levels = [h]
    maps: List[List[int]] = []
    for _ in range(max_levels):
        cur = levels[-1]
        if cur.n <= target_vertices:
            break
        coarse, cmap = contract(cur, match_heavy_edge(cur, rng))
        if coarse.n >= cur.n * 0.9:
            break
        levels.append(coarse)
        maps.append(cmap)
    return levels, maps
