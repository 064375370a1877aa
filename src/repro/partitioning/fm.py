"""Fiduccia–Mattheyses bisection refinement.

Classic single-vertex-move refinement with per-pass rollback: vertices
move one at a time (each at most once per pass) in best-gain-first order
subject to a balance constraint; at the end of the pass the prefix with
the best cumulative gain is kept.  Gains are maintained incrementally
from per-net side counts.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.partitioning.hypergraph import Hypergraph


def bisection_cut(h: Hypergraph, side: Sequence[int]) -> float:
    """Total weight of nets spanning both sides."""
    cut = 0.0
    for e, pins in enumerate(h.nets):
        s0 = side[pins[0]]
        if any(side[v] != s0 for v in pins[1:]):
            cut += h.nwgt[e]
    return cut


def _net_counts(h: Hypergraph, side: Sequence[int]) -> Tuple[List[int], List[int]]:
    c0 = [0] * h.n_nets
    c1 = [0] * h.n_nets
    for e, pins in enumerate(h.nets):
        for v in pins:
            if side[v] == 0:
                c0[e] += 1
            else:
                c1[e] += 1
    return c0, c1


def _gain(h: Hypergraph, side: Sequence[int], c0, c1, v: int) -> float:
    """Cut reduction if ``v`` moves to the other side."""
    g = 0.0
    s = side[v]
    for e in h.pins_of[v]:
        here = c0[e] if s == 0 else c1[e]
        there = c1[e] if s == 0 else c0[e]
        if here == 1:
            g += h.nwgt[e]  # net becomes uncut
        if there == 0:
            g -= h.nwgt[e]  # net becomes cut
    return g


def fm_refine(
    h: Hypergraph,
    side: List[int],
    target0: float,
    tolerance: float,
    max_passes: int = 8,
) -> List[int]:
    """Refine ``side`` in place-ish; returns the refined assignment.

    ``target0`` is the desired total vertex weight of side 0 and
    ``tolerance`` the allowed absolute deviation (hMETIS's UBfactor
    translated to weight units).  A move is admissible if it keeps side 0
    within ``target0 ± tolerance`` **or** strictly reduces the imbalance —
    so an infeasible initial assignment is repaired rather than frozen.
    """
    side = list(side)
    for _ in range(max_passes):
        improved, side = _fm_pass(h, side, target0, tolerance)
        if not improved:
            break
    return side


def _fm_pass(
    h: Hypergraph, side: List[int], target0: float, tolerance: float
) -> Tuple[bool, List[int]]:
    c0, c1 = _net_counts(h, side)
    w0 = sum(h.vwgt[v] for v in range(h.n) if side[v] == 0)
    locked = [False] * h.n
    version = [0] * h.n

    # Whether a move is admissible depends only on the vertex's side and
    # weight (and on w0), and an unlocked vertex never changes side
    # within a pass.  So candidates live in one heap per (side, weight)
    # class, and each move takes the least live (-gain, v) top among the
    # classes admissible at the current w0: exactly the entry a single
    # heap would yield after skipping every inadmissible one, without
    # popping and re-pushing them.  Keys are distinct per vertex, so
    # heapify pops in the same order as sequential pushes.
    class_of: Dict[Tuple[int, float], int] = {}
    heaps: List[List[Tuple[float, int, int]]] = []
    deltas: List[float] = []  # the w0 change a move out of the class makes
    cls = [0] * h.n
    for v in range(h.n):
        key = (side[v], h.vwgt[v])
        c = class_of.get(key)
        if c is None:
            c = class_of[key] = len(heaps)
            heaps.append([])
            deltas.append(-h.vwgt[v] if side[v] == 0 else h.vwgt[v])
        cls[v] = c
        heaps[c].append((-_gain(h, side, c0, c1, v), v, 0))
    for heap in heaps:
        heapq.heapify(heap)

    moves: List[int] = []
    cum = 0.0

    def feasible(weight0: float) -> bool:
        return abs(weight0 - target0) <= tolerance

    # Best prefix is chosen by (feasibility, cumulative gain): a pass
    # starting from an unbalanced assignment must keep the moves that
    # restore balance even when their cut gain is negative.
    start_key = (feasible(w0), 0.0)
    best_key = start_key
    best_len = 0

    heappop = heapq.heappop
    while True:
        # a move is admissible if it keeps side 0 within tolerance or
        # strictly reduces the imbalance; checked once per class, with
        # the float evaluation of a per-vertex check (an interval of
        # admissible deltas would misjudge weights tiny next to w0)
        dev = abs(w0 - target0)
        best: Optional[List[Tuple[float, int, int]]] = None
        for c, heap in enumerate(heaps):
            if not heap:
                continue
            gap = abs(w0 + deltas[c] - target0)
            if not (gap <= tolerance or gap < dev):
                continue
            # drop stale tops (locked vertex or outdated gain)
            while heap:
                _, u, ver = heap[0]
                if not locked[u] and version[u] == ver:
                    break
                heappop(heap)
            if heap and (best is None or heap[0] < best[0]):
                best = heap
        if best is None:
            break  # nothing admissible left
        neg_g, v, _ = heappop(best)
        # apply the move
        g = -neg_g
        s = side[v]
        side[v] = 1 - s
        w0 += -h.vwgt[v] if s == 0 else h.vwgt[v]
        locked[v] = True
        # Update per-net side counts and collect the vertices whose gain
        # can actually have changed (classic FM threshold rules: a net's
        # contribution to a pin's gain only flips when its side counts
        # cross the 0/1/2 boundaries).  Gains are recomputed *fresh* for
        # those vertices, so the pushed values are bit-identical to a
        # recompute-everything pass; vertices outside the set keep their
        # live heap entry, whose key equals what a fresh push would
        # carry, preserving the pop order exactly.
        affected = set()
        for e in h.pins_of[v]:
            if s == 0:
                F, T = c0[e], c1[e]  # counts before the move
                c0[e] -= 1
                c1[e] += 1
            else:
                F, T = c1[e], c0[e]
                c1[e] -= 1
                c0[e] += 1
            pins = h.nets[e]
            if T == 0 or F == 1:
                # net enters/leaves the cut: every free pin is affected
                for u in pins:
                    if not locked[u]:
                        affected.add(u)
            else:
                if F == 2:
                    # the one remaining pin on v's old side could now
                    # uncut the net by following
                    for u in pins:
                        if side[u] == s and not locked[u]:
                            affected.add(u)
                if T == 1:
                    # the previously lone pin on the other side no
                    # longer uncuts the net by moving
                    for u in pins:
                        if side[u] != s and not locked[u]:
                            affected.add(u)
        cum += g
        moves.append(v)
        key = (feasible(w0), cum)
        if key > (best_key[0], best_key[1] + 1e-12):
            best_key = key
            best_len = len(moves)
        for u in affected:
            version[u] += 1
            heapq.heappush(
                heaps[cls[u]], (-_gain(h, side, c0, c1, u), u, version[u])
            )

    # roll back to the best prefix
    for v in moves[best_len:]:
        side[v] = 1 - side[v]
    improved = best_key[0] > start_key[0] or best_key[1] > 1e-12
    return improved, side
