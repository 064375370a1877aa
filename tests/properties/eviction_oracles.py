"""The LUF counting rule as it was before set differences, kept as an oracle.

A verbatim copy of ``repro.eviction.luf.LufPolicy._counts`` and
``choose_victim`` from before the policy found its victim by set
difference: it tabulates ``nb(D)`` and ``np(D)`` for every candidate on
each call, then takes the ``(np(D), D)`` argmin over the candidates no
buffered task reads, or Belady's victim over the task buffer when there
is none.  ``test_luf_equivalence`` asserts the shipped policy returns the
same victim.  Nothing under ``src`` imports this module.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.belady import belady_victim


def luf_counts_oracle(
    policy, candidates: Set[int]
) -> Tuple[Dict[int, int], Dict[int, int], List[int]]:
    """``(nb, np, buffer)`` of ``policy``'s GPU for ``candidates``."""
    assert policy.view is not None
    graph = policy.view.graph
    buffer = policy.view.task_buffer(policy.gpu)
    planned = (
        policy.scheduler.planned_tasks(policy.gpu)
        if policy.scheduler is not None
        else ()
    )
    nb = {d: 0 for d in candidates}
    np_ = {d: 0 for d in candidates}
    for t in buffer:
        for d in graph.inputs_of(t):
            if d in nb:
                nb[d] += 1
    for t in planned:
        for d in graph.inputs_of(t):
            if d in np_:
                np_[d] += 1
    return nb, np_, buffer


def luf_victim_oracle(policy, candidates: Set[int]) -> int:
    nb, np_, buffer = luf_counts_oracle(policy, candidates)
    unused = [d for d in sorted(candidates) if nb[d] == 0]
    if unused:
        return min(unused, key=lambda d: (np_[d], d))
    # Belady fallback over the task buffer (rarely reached, per paper).
    return belady_victim(candidates, map(policy.view.graph.inputs_of, buffer))
