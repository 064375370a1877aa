"""Belady's MIN rule (paper Section III, [Belady 1966]).

Once a task order σ is fixed, evicting the resident datum whose next use
is furthest in the future minimises the number of loads.  The paper uses
this both as the offline-optimal baseline for a fixed σ and as the
fallback branch of the LUF eviction policy (Algorithm 6, line 7).  The
rule itself (:func:`belady_victim`) lives in :mod:`repro.core.schedule`,
whose Belady replay drives it; this module re-exports it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.problem import TaskGraph
from repro.core.schedule import (
    Schedule,
    belady_victim,
    next_use_distance,
    replay_schedule,
)

__all__ = ["belady_loads", "belady_victim", "next_use_distance", "policy_gap"]


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
