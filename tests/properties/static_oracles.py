"""Frozen selection loops of the static phases, kept as test oracles.

These are verbatim copies of ``repro.partitioning.fm._fm_pass`` and
``repro.schedulers.hfp._merge_round`` (with its ``_push_pairs``) from
before FM kept one heap per vertex class and HFP pruned over-bound
pairs at push time, and of ``repro.partitioning.bisection``'s
``multilevel_bisect`` from before it skipped restarts that repeat an
earlier one.  The old loops pop every candidate from one heap: FM
defers each inadmissible vertex and re-pushes it after every move, and
HFP pushes every pair twice, re-keys every neighbour of a merged
package through a per-package version and tests the memory bound at
pop time (the version list, once a ``_Packages`` field, is kept here).
The old bisection runs every restart to the finest level.  The old FM
pass also runs every pass to its end and computes each gain with
``_gain`` over ``_net_counts``, both kept here verbatim (shipped FM
builds the gains in one sweep over the nets).
``test_static_phase_equivalence`` asserts the shipped loops produce the
same output.  Nothing under ``src`` imports this module.
"""

from __future__ import annotations

import heapq
import random
from typing import List, Optional, Sequence, Tuple

from repro.partitioning import bisection
from repro.partitioning.fm import bisection_cut, fm_refine
from repro.partitioning.hypergraph import Hypergraph
from repro.schedulers.hfp import _Packages


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


def multilevel_bisect_oracle(
    h: Hypergraph,
    target0_frac: float = 0.5,
    ubfactor: float = 1.0,
    nruns: int = 10,
    rng: Optional[random.Random] = None,
    coarse_size: int = 60,
) -> Tuple[List[int], float]:
    if rng is None:
        rng = random.Random(0)
    total = h.total_vertex_weight
    target0 = target0_frac * total
    tolerance = max(
        ubfactor / 100.0 * total,
        max(h.vwgt, default=0.0) * 0.5 + 1e-12,
    )

    # looked up on the module so that a test's stand-in chain reaches both
    levels, maps = bisection.coarsen_to(h, coarse_size, rng)
    best_side: Optional[List[int]] = None
    best_cut = float("inf")
    coarsest = levels[-1]
    for _ in range(max(1, nruns)):
        side = bisection._greedy_initial(coarsest, target0, rng)
        side = fm_refine(coarsest, side, target0, tolerance)
        # project back up, refining at each level
        for lvl in range(len(levels) - 2, -1, -1):
            cmap = maps[lvl]
            fine = [side[cmap[v]] for v in range(levels[lvl].n)]
            side = fm_refine(levels[lvl], fine, target0, tolerance)
        cut = bisection_cut(h, side)
        if cut < best_cut:
            best_cut, best_side = cut, side
    assert best_side is not None
    return best_side, best_cut


def fm_pass_oracle(
    h: Hypergraph, side: List[int], target0: float, tolerance: float
) -> Tuple[bool, List[int]]:
    c0, c1 = _net_counts(h, side)
    w0 = sum(h.vwgt[v] for v in range(h.n) if side[v] == 0)
    locked = [False] * h.n
    version = [0] * h.n

    # (-gain, v, version); build + heapify pops in the same order as
    # sequential pushes (keys are distinct per vertex)
    heap: List[Tuple[float, int, int]] = [
        (-_gain(h, side, c0, c1, v), v, 0) for v in range(h.n)
    ]
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

    def admissible(v: int) -> bool:
        delta = -h.vwgt[v] if side[v] == 0 else h.vwgt[v]
        new_w0 = w0 + delta
        if abs(new_w0 - target0) <= tolerance:
            return True
        return abs(new_w0 - target0) < abs(w0 - target0)

    deferred: List[Tuple[float, int, int]] = []
    while heap or deferred:
        if not heap:
            # Everything left was inadmissible; no further moves possible.
            break
        neg_g, v, ver = heapq.heappop(heap)
        if locked[v] or version[v] != ver:
            continue
        if not admissible(v):
            deferred.append((neg_g, v, ver))
            # If nothing admissible remains on the heap we will exit via
            # the empty-heap check; otherwise keep popping.
            continue
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
                heap, (-_gain(h, side, c0, c1, u), u, version[u])
            )
        # previously deferred vertices may have become admissible
        if deferred:
            for item in deferred:
                heapq.heappush(heap, item)
            deferred.clear()

    # roll back to the best prefix
    for v in moves[best_len:]:
        side[v] = 1 - side[v]
    improved = best_key[0] > start_key[0] or best_key[1] > 1e-12
    return improved, side


def push_pairs_oracle(heap, pk: _Packages, version: List[int], pid: int) -> None:
    """Push fresh heap entries for ``pid`` against all its neighbours."""
    ntasks = pk.ntasks
    push = heapq.heappush
    nt_pid = ntasks[pid]
    v_pid = version[pid]
    for q, w in pk.nbr[pid].items():
        if pid < q:
            push(heap, (-w, nt_pid + ntasks[q], pid, q, v_pid, version[q]))
        else:
            push(heap, (-w, nt_pid + ntasks[q], q, pid, version[q], v_pid))


def merge_round_oracle(
    pk: _Packages,
    memory_bound: Optional[float],
    stop_at: int,
) -> None:
    """Greedy best-pair merging until the heap dries up or ``stop_at``.

    ``memory_bound`` restricts merges to packages whose combined input
    footprint fits (phase 1); ``None`` lifts the restriction (phase 2).
    """
    # per-package merge count, bumped on every merge
    version = [0] * len(pk.tasks)
    heap: List[Tuple[float, int, int, int, int, int]] = []
    for pid in pk.active_ids():
        push_pairs_oracle(heap, pk, version, pid)
    # Stale entries (merged-away package or outdated version) are
    # skipped on pop; when they dominate the heap, filter them out in
    # one pass and re-heapify.  Live entries keep their exact keys, so
    # the pop order — and hence every merge decision — is unchanged
    # (a stale ``w <= 0`` pop breaks the loop just like the live or
    # stale ``w <= 0`` entry that follows it would).
    compact_at = max(4096, 2 * len(heap))
    while heap and pk.n_active > stop_at:
        neg_w, _, a, b, va, vb = heapq.heappop(heap)
        w = -neg_w
        if w <= 0:
            break
        if pk.tasks[a] is None or pk.tasks[b] is None:
            continue
        if version[a] != va or version[b] != vb:
            continue  # stale entry; fresh ones were pushed at merge time
        if memory_bound is not None and pk.union_bytes(a, b, w) > memory_bound:
            continue
        pk.merge(a, b)
        version[a] += 1
        push_pairs_oracle(heap, pk, version, a)
        if len(heap) > compact_at:
            tasks = pk.tasks
            heap = [
                item
                for item in heap
                if tasks[item[2]] is not None
                and tasks[item[3]] is not None
                and version[item[2]] == item[4]
                and version[item[3]] == item[5]
            ]
            heapq.heapify(heap)
            compact_at = max(4096, 2 * len(heap))
