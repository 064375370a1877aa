"""Belady's MIN rule (paper Section III, [Belady 1966]).

Once a task order σ is fixed, evicting the resident datum whose next use
is furthest in the future minimises the number of loads.  The paper uses
this both as the offline-optimal baseline for a fixed σ and as the
fallback branch of the LUF eviction policy (Algorithm 6, line 7).
:func:`belady_victim` is the one implementation of the rule: the
simulator's :class:`~repro.eviction.OnlineBeladyPolicy` and
:class:`~repro.eviction.LufPolicy` call it, and the analytic replay
reaches it through the former.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence, Tuple

from repro.core.problem import TaskGraph
from repro.core.schedule import Schedule, replay_schedule

__all__ = ["belady_loads", "belady_victim", "next_use_distance", "policy_gap"]


def next_use_distance(
    data_id: int, future: Sequence[Tuple[int, ...]]
) -> Optional[int]:
    """Steps until ``data_id`` is next used, or ``None`` if never again.

    ``future[0]`` is the current step's input tuple.
    """
    for offset, inputs in enumerate(future):
        if data_id in inputs:
            return offset
    return None


def belady_victim(
    candidates: Iterable[int],
    future: Iterable[Tuple[int, ...]],
    unused_key: Optional[Callable[[int], Any]] = None,
) -> int:
    """The Belady victim among ``candidates`` given the upcoming accesses.

    ``future`` yields the input tuples of the upcoming tasks, the current
    one first; it is read only until every candidate has been seen.  A
    candidate never used again is always preferred, the smallest under
    ``unused_key`` (default: its id) among several; otherwise the one
    whose next use is furthest wins, ties going to the smallest id.
    """
    pending = set(candidates)
    if not pending:
        raise ValueError("belady_victim called with no candidates")
    for inputs in future:
        if pending.isdisjoint(inputs):
            continue
        hit = pending.intersection(inputs)
        pending -= hit
        if not pending:
            return min(hit)
    return min(pending, key=unused_key)


def belady_loads(
    graph: TaskGraph,
    schedule: Schedule,
    capacity_items: Optional[int] = None,
    capacity_bytes: Optional[float] = None,
) -> int:
    """Minimum number of loads achievable for the fixed schedule σ.

    This is the paper's Objective 2 evaluated with the optimal eviction
    scheme, obtained by replaying σ under Belady's rule.
    """
    res = replay_schedule(
        graph,
        schedule,
        capacity_items=capacity_items,
        policy="belady",
        capacity_bytes=capacity_bytes,
    )
    return res.total_loads


def policy_gap(
    graph: TaskGraph,
    schedule: Schedule,
    policy: str,
    capacity_items: Optional[int] = None,
) -> Tuple[int, int]:
    """(loads under ``policy``, loads under Belady) for the same σ.

    The first component is always ≥ the second; the gap quantifies how far
    an online eviction policy is from offline-optimal on this schedule.
    """
    got = replay_schedule(
        graph, schedule, capacity_items=capacity_items, policy=policy
    ).total_loads
    best = belady_loads(graph, schedule, capacity_items=capacity_items)
    return got, best
