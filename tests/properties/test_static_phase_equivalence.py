"""Differential tests: the static phases' selection loops against oracles.

FM keeps one candidate heap per (side, vertex weight) class, builds its
gains in one sweep over the nets and ends a pass once no later prefix
can win; HFP leaves pairs over the memory bound out of its entries,
re-keys a pair only when its shared weight grows and pops its bulk-built
entries from one sorted run beside a heap; bisection stops a restart
that repeats an earlier one.  Each is claimed to choose exactly what the
loop it replaced chose; those loops are frozen in
``tests/properties/static_oracles.py``.  Hypothesis drives them on the
cases where the claim is most fragile:

* FM: heterogeneous vertex weights, some tiny next to the total (so that
  ``w0 + delta`` rounds back to ``w0``), random and often infeasible
  starting sides, tolerances down to zero; whole-number net weights
  (exact sums) beside fractional and mixed-magnitude ones (rounded
  sums, which the early stop must allow for), and single-pin nets;
* HFP: heterogeneous and zero-size data (``w == 0`` pairs, whose pop
  ends a round) under memory bounds tight enough to reach phase 2 and
  the fold of disconnected leftovers;
* bisection: small graphs with many restarts (so starts repeat and cuts
  tie), heterogeneous vertex weights, graphs already below
  ``coarse_size``, and coarsening chains whose levels share a size.
"""

import heapq
import random
from types import SimpleNamespace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.problem import Data
from repro.experiments.harness import figure_spec
from repro.partitioning import bisection
from repro.partitioning.bisection import multilevel_bisect
from repro.partitioning.fm import _fm_pass
from repro.partitioning.hypergraph import Hypergraph
from repro.partitioning.interface import partition_tasks
from repro.schedulers import hfp
from repro.schedulers.hfp import _merge_round, _Packages, hfp_pack
from repro.workloads.randomgraph import random_bipartite

from tests.properties.static_oracles import (
    fm_pass_oracle,
    merge_round_oracle,
    multilevel_bisect_oracle,
)

#: vertex weights mixing unit-scale, huge and vanishing values
WEIGHTS = (1.0, 2.0, 3.0, 0.5, 7.0, 1e6, 1e-9, 1e-13, 1e-17)

#: net weights: whole numbers, whose sums are exact (every
#: ``TaskGraph``-built hypergraph), beside fractions and magnitudes
#: whose sums round
NET_WEIGHTS = (1.0, 2.0, 5.0, 0.1, 0.5, 1e-3, 1e6)


def _random_hypergraph(rng, n, pool, n_nets, net_pool=None, min_pins=2):
    """Nets weigh 1 to 5, or are drawn from ``net_pool`` when given."""
    vwgt = [rng.choice(pool) for _ in range(n)]
    nets = [
        tuple(rng.sample(range(n), rng.randint(min_pins, min(5, n))))
        for _ in range(n_nets)
    ]
    if net_pool is None:
        nwgt = [float(rng.randint(1, 5)) for _ in nets]
    else:
        nwgt = [rng.choice(net_pool) for _ in nets]
    return Hypergraph(n, vwgt, nets, nwgt)


@st.composite
def fm_case(draw):
    n = draw(st.integers(2, 24))
    rng = random.Random(draw(st.integers(0, 2**16)))
    pool = draw(st.lists(st.sampled_from(WEIGHTS), min_size=1, max_size=4))
    net_pool = draw(
        st.lists(st.sampled_from(NET_WEIGHTS), min_size=1, max_size=3)
    )
    h = _random_hypergraph(
        rng, n, pool, draw(st.integers(1, 30)), net_pool, min_pins=1
    )
    side = [rng.randint(0, 1) for _ in range(n)]
    total = sum(h.vwgt)
    target0 = draw(st.sampled_from([0.0, 0.25, 0.5, 0.6, 1.0])) * total
    tolerance = draw(st.sampled_from([0.0, 1e-12, 0.01, 0.1, 0.5])) * total
    return h, side, target0, tolerance


def _run_passes(fm_pass, h, side, target0, tolerance):
    """Up to four chained passes, as ``fm_refine`` runs them."""
    trail = []
    side = list(side)
    for _ in range(4):
        improved, side = fm_pass(h, list(side), target0, tolerance)
        trail.append((improved, list(side)))
        if not improved:
            break
    return trail


@settings(max_examples=200, deadline=None)
@given(fm_case())
# one light vertex among heavy ones on an infeasible start: its move
# rounds w0 back to itself, so it must stay inadmissible
@example(
    (
        Hypergraph(
            4, [1e6, 1e6, 1e-13, 1.0], [(0, 1), (1, 2), (2, 3)], [1.0, 2.0, 3.0]
        ),
        [0, 0, 0, 1],
        0.0,
        0.0,
    )
)
# the cut reaches zero after the first move; later moves cut and uncut
# the 1e6 net, and the rounding of 0.001 - 1e6 + 1e6 makes such a
# prefix beat the zero cut in floats, so the early stop must allow slack
@example(
    (
        Hypergraph(6, [1.0] * 6, [(3, 2), (4, 1)], [1e-3, 1e6]),
        [0, 1, 1, 0, 1, 0],
        3.0,
        1.0,
    )
)
# a single-pin net adds +w then -w to its pin's gain: -0.001 + 1 - 1
# rounds away from -0.001, which puts vertex 0 behind vertex 1
@example(
    (
        Hypergraph(2, [1.0, 1.0], [(0, 1), (1,), (0,)], [1e-3, 1e-3, 1.0]),
        [0, 0],
        1.0,
        0.5,
    )
)
def test_fm_pass_matches_single_heap_oracle(case):
    h, side, target0, tolerance = case
    assert _run_passes(_fm_pass, h, side, target0, tolerance) == _run_passes(
        fm_pass_oracle, h, side, target0, tolerance
    )


@st.composite
def hfp_case(draw):
    n_data = draw(st.integers(2, 10))
    graph = random_bipartite(
        n_tasks=draw(st.integers(2, 24)),
        n_data=n_data,
        arity=draw(st.integers(1, min(3, n_data))),
        seed=draw(st.integers(0, 2**16)),
        heterogeneous_sizes=draw(st.booleans()),
    )
    # TaskGraph rejects zero sizes; the packer must still handle them
    for d in draw(st.sets(st.integers(0, n_data - 1), max_size=n_data // 2)):
        graph.data[d] = Data(id=d, size=0.0)
    bound = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.5, 8.0, 1e9]))
    k = draw(st.integers(1, 4))
    return graph, bound, k


def _rounds(merge_round, graph, bound, k):
    """Package state after phase 1 and after phase 2, as ``hfp_pack`` runs them."""
    pk = _Packages(graph)
    merge_round(pk, bound, stop_at=k)
    states = [list(pk.tasks)]
    if pk.count > k:
        merge_round(pk, None, stop_at=k)
        states.append(list(pk.tasks))
    return states


@settings(max_examples=200, deadline=None)
@given(hfp_case())
def test_merge_rounds_match_pop_time_oracle(case):
    graph, bound, k = case
    assert _rounds(_merge_round, graph, bound, k) == _rounds(
        merge_round_oracle, graph, bound, k
    )


def test_tight_bound_reaches_phase_two_and_the_fold():
    """A sparse graph under a tight bound runs every phase of ``hfp_pack``."""
    graph = random_bipartite(n_tasks=12, n_data=12, arity=1, seed=5)
    graph.data[0] = Data(id=0, size=0.0)
    old, new = _rounds(merge_round_oracle, graph, 1.0, 2), _rounds(
        _merge_round, graph, 1.0, 2
    )
    assert old == new
    assert len(new) == 2, "phase 2 must run"
    leftover = sum(t is not None for t in new[-1])
    assert leftover > 2, "disconnected leftovers must reach the fold"
    assert len(hfp_pack(graph, 1.0, 2)) == 2


@st.composite
def bisect_case(draw):
    n = draw(st.integers(2, 40))
    rng = random.Random(draw(st.integers(0, 2**16)))
    pool = draw(st.lists(st.sampled_from(WEIGHTS), min_size=1, max_size=3))
    h = _random_hypergraph(rng, n, pool, draw(st.integers(1, 2 * n)))
    kwargs = dict(
        target0_frac=draw(st.sampled_from([0.5, 2 / 3, 0.25])),
        ubfactor=draw(st.sampled_from([0.0, 1.0, 10.0])),
        nruns=draw(st.integers(1, 12)),
        # 60 leaves every drawn graph at one level
        coarse_size=draw(st.sampled_from([2, 4, 8, 60])),
    )
    return h, kwargs, draw(st.integers(0, 2**16))


def _bisect(fn, h, kwargs, seed):
    """(side, cut) and the rng state the later bisections would draw from."""
    rng = random.Random(seed)
    return fn(h, rng=rng, **kwargs), rng.getstate()


@settings(max_examples=300, deadline=None)
@given(bisect_case())
def test_bisect_matches_all_restarts_oracle(case):
    h, kwargs, seed = case
    assert _bisect(multilevel_bisect, h, kwargs, seed) == _bisect(
        multilevel_bisect_oracle, h, kwargs, seed
    )


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 8),
    st.integers(2, 4),
    st.integers(1, 12),
    st.integers(0, 2**16),
)
def test_bisect_keys_restarts_by_level(n, depth, nruns, seed):
    """A chain whose levels share a size: a side refined at one level
    says nothing about the same side at another.

    ``coarsen_to`` never builds such a chain (each level shrinks by 10 %),
    so a stand-in returns ``depth`` unrelated equal-size hypergraphs
    joined by identity maps.
    """
    rng = random.Random(seed)
    levels = [
        _random_hypergraph(rng, n, [1.0], rng.randint(1, 2 * n))
        for _ in range(depth)
    ]
    chain = (levels, [list(range(n))] * (depth - 1))
    kwargs = dict(nruns=nruns, coarse_size=2)
    with mock.patch.object(bisection, "coarsen_to", lambda *a: chain):
        assert _bisect(multilevel_bisect, levels[0], kwargs, seed) == (
            _bisect(multilevel_bisect_oracle, levels[0], kwargs, seed)
        )


def _trace_fm_levels(monkeypatch, figure, n, k):
    """Per bisection: its coarsening chain and the level of each FM call."""
    real_coarsen, real_fm = bisection.coarsen_to, bisection.fm_refine
    runs = []

    def coarsen_to(h, target, rng):
        levels, maps = real_coarsen(h, target, rng)
        runs.append((levels, []))
        return levels, maps

    def fm_refine(h, *args):
        levels, calls = runs[-1]
        calls.append(next(i for i, g in enumerate(levels) if g is h))
        return real_fm(h, *args)

    monkeypatch.setattr(bisection, "coarsen_to", coarsen_to)
    monkeypatch.setattr(bisection, "fm_refine", fm_refine)
    partition_tasks(
        figure_spec(figure).workload(n), k, nruns=10, rng=random.Random(0)
    )
    return runs


def test_pinned_partition_skips_restarts(monkeypatch):
    """fig8 n=30 K=4 (a ``PARTITION_PINS`` case) skips whole restarts."""
    runs = _trace_fm_levels(monkeypatch, "fig8", 30, 4)
    assert len(runs) == 3  # K=4: three bisections
    calls = sum(len(levels_hit) for _, levels_hit in runs)
    assert calls < sum(len(levels) for levels, _ in runs) * 10


def test_pinned_partition_stops_a_restart_below_the_coarsest_level(
    monkeypatch,
):
    """fig8 n=36 K=4 (a ``PARTITION_PINS`` case) has a restart whose
    greedy start is new but whose side repeats at a finer level."""
    stopped = 0
    for levels, levels_hit in _trace_fm_levels(monkeypatch, "fig8", 36, 4):
        top = len(levels) - 1
        restarts = []
        for lvl in levels_hit:
            if lvl == top:
                restarts.append([])
            restarts[-1].append(lvl)
        stopped += sum(r[-1] != 0 for r in restarts)
    assert stopped > 0


def test_lazy_rekeying_takes_both_stale_branches(monkeypatch):
    """One fixed case pops an entry that only a task count outdated (it
    goes back with the current key unless the pair outgrew the bound)
    and one whose shared weight grew since (a fresher entry was pushed,
    or the pair no longer fits, so it is dropped).  Pops go through
    ``_pop_least``, the one seam of both entry sources, and the log
    must see each source."""
    graph = random_bipartite(n_tasks=40, n_data=12, arity=3, seed=1)
    bound = 5.0
    pk = _Packages(graph)
    log = []
    sources = set()
    pop_least = hfp._pop_least

    def logging_pop(run, heap):
        before = len(run)
        entry = pop_least(run, heap)
        sources.add("run" if len(run) < before else "heap")
        neg_w, count, a, b = entry
        kind, key = "dead", None
        if pk.tasks[a] is not None and pk.tasks[b] is not None:
            key = (-pk.nbr[a][b], pk.ntasks[a] + pk.ntasks[b], a, b)
            if key[0] != neg_w:
                kind = "superseded"
            elif key == entry:
                kind = "current"
            elif pk.union_bytes(a, b, -neg_w) > bound:
                kind = "over bound"
            else:
                kind = "lower"
        log.append(("pop", kind, key, pk.n_active))
        return entry

    def heappush(heap, entry):
        log.append(("push", entry))
        heapq.heappush(heap, entry)

    monkeypatch.setattr(hfp, "_pop_least", logging_pop)
    monkeypatch.setattr(
        hfp,
        "heapq",
        SimpleNamespace(heappop=heapq.heappop, heappush=heappush),
    )
    _merge_round(pk, bound, stop_at=1)
    monkeypatch.undo()

    assert sources == {"run", "heap"}
    repushed = dropped = 0
    for op, nxt in zip(log, log[1:]):
        if op[:2] == ("pop", "lower"):
            assert nxt == ("push", op[2])  # back with the current key
            repushed += 1
        elif op[:2] in (("pop", "superseded"), ("pop", "over bound")):
            assert nxt[0] == "pop" and nxt[3] == op[3]  # no push, no merge
            dropped += op[1] == "superseded"
    assert repushed and dropped
    assert _rounds(_merge_round, graph, bound, 1) == _rounds(
        merge_round_oracle, graph, bound, 1
    )
