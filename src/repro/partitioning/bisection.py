"""Multilevel bisection and the recursive K-way driver.

Follows the hMETIS recipe: coarsen by heavy-edge matching, partition the
coarsest hypergraph greedily from a random seed, then uncoarsen while
FM-refining at every level.  Each bisection is restarted ``nruns`` times
(the paper sets hMETIS's Nruns to 20) keeping the best cut.  FM has no
randomness, so a restart that reaches a (level, side) an earlier restart
of the same bisection already refined stops there: it could only repeat
that restart's side and cut, and the first of equal cuts is kept.  K-way
partitions are produced by recursive bisection with proportional targets,
so K need not be a power of two.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set, Tuple

from repro.partitioning.coarsen import coarsen_to
from repro.partitioning.fm import bisection_cut, fm_refine
from repro.partitioning.hypergraph import Hypergraph


def _greedy_initial(
    h: Hypergraph, target0: float, rng: random.Random
) -> List[int]:
    """Grow side 0 from a random seed by strongest attachment."""
    side = [1] * h.n
    if h.n == 0:
        return side
    seed = rng.randrange(h.n)
    side[seed] = 0
    w0 = h.vwgt[seed]
    attach = {u: s for u, s in h.neighbor_weights(seed).items()}
    in0 = {seed}
    while w0 < target0 and len(in0) < h.n:
        if attach:
            v = max(attach, key=lambda u: (attach[u], -u))
            del attach[v]
        else:  # disconnected: pick any remaining vertex
            v = next(u for u in range(h.n) if u not in in0)
        if v in in0:
            continue
        side[v] = 0
        in0.add(v)
        w0 += h.vwgt[v]
        for u, s in h.neighbor_weights(v).items():
            if u not in in0:
                attach[u] = attach.get(u, 0.0) + s
    return side


def multilevel_bisect(
    h: Hypergraph,
    target0_frac: float = 0.5,
    ubfactor: float = 1.0,
    nruns: int = 10,
    rng: Optional[random.Random] = None,
    coarse_size: int = 60,
) -> Tuple[List[int], float]:
    """Bisect ``h``; returns (side assignment, cut weight).

    ``target0_frac`` is side 0's share of the total vertex weight;
    ``ubfactor`` is the hMETIS-style imbalance percentage (side 0 may
    deviate by ``ubfactor%`` of the total weight from its target).
    """
    if rng is None:
        rng = random.Random(0)
    total = h.total_vertex_weight
    target0 = target0_frac * total
    # Tolerance: UBfactor percent of total, but never tighter than the
    # heaviest vertex (otherwise no balanced assignment may exist).
    tolerance = max(
        ubfactor / 100.0 * total,
        max(h.vwgt, default=0.0) * 0.5 + 1e-12,
    )

    levels, maps = coarsen_to(h, coarse_size, rng)
    best_side: Optional[List[int]] = None
    best_cut = float("inf")
    top = len(levels) - 1
    # (level, side about to be refined there) of every earlier restart
    refined: Set[Tuple[int, bytes]] = set()
    for _ in range(max(1, nruns)):
        # drawn even for a repeated start: the rng stream is shared with
        # coarsening and the later bisections
        side = _greedy_initial(levels[top], target0, rng)
        for lvl in range(top, -1, -1):
            if lvl < top:  # project one level down
                cmap = maps[lvl]
                side = [side[cmap[v]] for v in range(levels[lvl].n)]
            key = (lvl, bytes(side))
            if key in refined:
                # FM is deterministic, so the rest of this restart
                # repeats an earlier one: same side, same cut, and
                # ``cut < best_cut`` takes no tie
                break
            refined.add(key)
            side = fm_refine(levels[lvl], side, target0, tolerance)
        else:
            cut = bisection_cut(h, side)
            if cut < best_cut:
                best_cut, best_side = cut, side
    assert best_side is not None
    return best_side, best_cut


def _subhypergraph(
    h: Hypergraph, vertices: List[int]
) -> Tuple[Hypergraph, List[int]]:
    """Restriction of ``h`` to ``vertices``; returns (sub, local→global)."""
    index = {v: i for i, v in enumerate(vertices)}
    nets: List[Tuple[int, ...]] = []
    weights: List[float] = []
    for e, pins in enumerate(h.nets):
        local = tuple(index[v] for v in pins if v in index)
        if len(local) >= 2:
            nets.append(local)
            weights.append(h.nwgt[e])
    sub = Hypergraph(
        len(vertices), [h.vwgt[v] for v in vertices], nets, weights
    )
    return sub, vertices


def partition_kway(
    h: Hypergraph,
    k: int,
    ubfactor: float = 1.0,
    nruns: int = 10,
    rng: Optional[random.Random] = None,
) -> List[int]:
    """Recursive-bisection K-way partition; returns part id per vertex."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if rng is None:
        rng = random.Random(0)
    parts = [0] * h.n
    _recurse(h, list(range(h.n)), k, 0, parts, ubfactor, nruns, rng)
    return parts


def _recurse(
    h: Hypergraph,
    vertices: List[int],
    k: int,
    first_part: int,
    parts: List[int],
    ubfactor: float,
    nruns: int,
    rng: random.Random,
) -> None:
    if k == 1 or not vertices:
        for v in vertices:
            parts[v] = first_part
        return
    k0 = (k + 1) // 2
    sub, back = _subhypergraph(h, vertices)
    side, _ = multilevel_bisect(
        sub,
        target0_frac=k0 / k,
        ubfactor=ubfactor,
        nruns=nruns,
        rng=rng,
    )
    left = [back[i] for i in range(sub.n) if side[i] == 0]
    right = [back[i] for i in range(sub.n) if side[i] == 1]
    _recurse(h, left, k0, first_part, parts, ubfactor, nruns, rng)
    _recurse(h, right, k - k0, first_part + k0, parts, ubfactor, nruns, rng)
