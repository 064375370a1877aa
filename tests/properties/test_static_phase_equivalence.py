"""Differential tests: the static phases' selection loops against oracles.

FM keeps one candidate heap per (side, vertex weight) class and HFP
leaves pairs over the memory bound out of its heap.  Both are claimed to
choose exactly what the single-heap loops they replaced chose; those
loops are frozen in ``tests/properties/static_oracles.py``.  Hypothesis
drives both on the cases where the claim is most fragile:

* FM: heterogeneous vertex weights, some tiny next to the total (so that
  ``w0 + delta`` rounds back to ``w0``), random and often infeasible
  starting sides, tolerances down to zero;
* HFP: heterogeneous and zero-size data (``w == 0`` pairs, whose pop
  ends a round) under memory bounds tight enough to reach phase 2 and
  the fold of disconnected leftovers.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.problem import Data
from repro.partitioning.fm import _fm_pass
from repro.partitioning.hypergraph import Hypergraph
from repro.schedulers.hfp import _merge_round, _Packages, hfp_pack
from repro.workloads.randomgraph import random_bipartite

from tests.properties.static_oracles import fm_pass_oracle, merge_round_oracle

#: vertex weights mixing unit-scale, huge and vanishing values
WEIGHTS = (1.0, 2.0, 3.0, 0.5, 7.0, 1e6, 1e-9, 1e-13, 1e-17)


@st.composite
def fm_case(draw):
    n = draw(st.integers(2, 24))
    rng = random.Random(draw(st.integers(0, 2**16)))
    pool = draw(st.lists(st.sampled_from(WEIGHTS), min_size=1, max_size=4))
    vwgt = [rng.choice(pool) for _ in range(n)]
    nets = []
    for _ in range(draw(st.integers(1, 30))):
        nets.append(tuple(rng.sample(range(n), rng.randint(2, min(5, n)))))
    nwgt = [float(rng.randint(1, 5)) for _ in nets]
    h = Hypergraph(n, vwgt, nets, nwgt)
    side = [rng.randint(0, 1) for _ in range(n)]
    total = sum(vwgt)
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
