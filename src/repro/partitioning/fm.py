"""Fiduccia–Mattheyses bisection refinement.

Classic single-vertex-move refinement with per-pass rollback: vertices
move one at a time (each at most once per pass) in best-gain-first order
subject to a balance constraint; at the end of the pass the prefix with
the best cumulative gain is kept.  Gains are maintained incrementally
from per-net side counts.  A pass ends early once no later prefix can
beat the best one: a net with moved (hence locked) pins on both sides
stays cut for the rest of the pass, which bounds every later prefix's
cumulative gain.
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


def _stop_slack(h: Hypergraph) -> float:
    """Float slack of the early-stop comparison in ``_fm_pass``.

    Whole-number net weights summing below 2**53 make every gain,
    cumulative gain and cut sum an exact integer, so the slack is 0.
    Otherwise it bounds the rounding error of those sums:
    ``(n + nets + 1) * 8u`` times the pin-weighted total weight, with
    ``u = 2**-53`` (DESIGN.md, "Modeled cost vs implementation speed").
    """
    if sum(h.nwgt) < 2.0**53 and all(
        float(w).is_integer() for w in h.nwgt
    ):
        return 0.0
    pin_weight = sum(len(p) * w for p, w in zip(h.nets, h.nwgt))
    return (h.n + h.n_nets + 1) * pin_weight * 2.0**-50


def fm_refine(
    h: Hypergraph,
    side: List[int],
    target0: float,
    tolerance: float,
    max_passes: int = 8,
) -> List[int]:
    """Refine a copy of ``side``; returns the refined assignment.

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
    nets, nwgt, pins_of, vwgt = h.nets, h.nwgt, h.pins_of, h.vwgt
    # Per net: pin count and pin-id sum on each side (the id sum of a
    # side holding one pin is that pin), and the initial gains, in one
    # sweep in ascending net order.  ``pins_of[v]`` lists v's nets in
    # ascending order, so each gain adds the terms of a per-vertex
    # recompute in the same order: the floats are identical.
    c0 = [0] * h.n_nets
    c1 = [0] * h.n_nets
    id0 = [0] * h.n_nets
    id1 = [0] * h.n_nets
    gain = [0.0] * h.n
    cut0 = 0.0
    for e, pins in enumerate(nets):
        n1 = s0 = s1 = 0
        for u in pins:
            if side[u]:
                n1 += 1
                s1 += u
            else:
                s0 += u
        n0 = len(pins) - n1
        c0[e], c1[e], id0[e], id1[e] = n0, n1, s0, s1
        w = nwgt[e]
        if n0 and n1:
            cut0 += w
            if n0 == 1:  # the lone pin uncuts the net by moving
                gain[s0] += w
            if n1 == 1:
                gain[s1] += w
        elif len(pins) == 1:  # uncut whatever it does: +w then -w
            gain[pins[0]] += w
            gain[pins[0]] -= w
        else:  # every pin's move cuts the net
            for u in pins:
                gain[u] -= w
    w0 = sum(vwgt[v] for v in range(h.n) if side[v] == 0)
    locked = [False] * h.n
    version = [0] * h.n
    # bit s set: some locked pin of the net sits on side s; 3: both
    lock_sides = [0] * h.n_nets
    locked_cut = 0.0
    slack = _stop_slack(h)

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
        key = (side[v], vwgt[v])
        c = class_of.get(key)
        if c is None:
            c = class_of[key] = len(heaps)
            heaps.append([])
            deltas.append(-vwgt[v] if side[v] == 0 else vwgt[v])
        cls[v] = c
        heaps[c].append((-gain[v], v, 0))
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
    heappush = heapq.heappush
    while True:
        # No later prefix's cumulative gain exceeds cut0 - locked_cut
        # (plus the rounding slack), so once that cannot beat a feasible
        # best prefix, the rest of the pass would be rolled back.
        if best_key[0] and cut0 - locked_cut + slack <= best_key[1] + 1e-12:
            break
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
        w0 += -vwgt[v] if s == 0 else vwgt[v]
        locked[v] = True
        if s == 0:
            from_c, to_c, from_id, to_id, to_bit = c0, c1, id0, id1, 2
        else:
            from_c, to_c, from_id, to_id, to_bit = c1, c0, id1, id0, 1
        # Update per-net side counts and collect the vertices whose gain
        # can actually have changed (classic FM threshold rules: a net's
        # contribution to a pin's gain only flips when its side counts
        # cross the 0/1/2 boundaries).  Gains are recomputed *fresh* for
        # those vertices, so the pushed values are bit-identical to a
        # recompute-everything pass; vertices outside the set keep their
        # live heap entry, whose key equals what a fresh push would
        # carry, preserving the pop order exactly.
        affected = set()
        for e in pins_of[v]:
            F, T = from_c[e], to_c[e]  # counts before the move
            from_c[e] = F - 1
            to_c[e] = T + 1
            from_id[e] -= v
            to_id[e] += v
            sides = lock_sides[e]
            if sides != 3:
                sides |= to_bit
                if sides == 3:  # locked pins on both sides: cut for good
                    locked_cut += nwgt[e]
                lock_sides[e] = sides
            if T == 0 or F == 1:
                # net enters/leaves the cut: every free pin is affected
                for u in nets[e]:
                    if not locked[u]:
                        affected.add(u)
            else:
                if F == 2:
                    # the one remaining pin on v's old side could now
                    # uncut the net by following
                    u = from_id[e]
                    if not locked[u]:
                        affected.add(u)
                if T == 1:
                    # the previously lone pin on the other side no
                    # longer uncuts the net by moving
                    u = to_id[e] - v
                    if not locked[u]:
                        affected.add(u)
        cum += g
        moves.append(v)
        key = (feasible(w0), cum)
        if key > (best_key[0], best_key[1] + 1e-12):
            best_key = key
            best_len = len(moves)
        for u in affected:
            version[u] += 1
            gu = 0.0
            if side[u] == 0:
                here, there = c0, c1
            else:
                here, there = c1, c0
            for e in pins_of[u]:
                if here[e] == 1:
                    gu += nwgt[e]  # net becomes uncut
                if there[e] == 0:
                    gu -= nwgt[e]  # net becomes cut
            heappush(heaps[cls[u]], (-gu, u, version[u]))

    # roll back to the best prefix
    for v in moves[best_len:]:
        side[v] = 1 - side[v]
    improved = best_key[0] > start_key[0] or best_key[1] > 1e-12
    return improved, side
