"""Temporal-locality statistics of executed task orders.

The reuse distance of a data access is the number of *distinct* other
data touched since its previous access on the same GPU — the classic
stack-distance measure: an access hits in an (LRU-style) memory of
capacity M iff its reuse distance is < M.  The histogram of an order's
reuse distances therefore predicts its load count under any memory
bound, which connects the schedulers' observed transfer volumes to the
orders they produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.problem import TaskGraph


def reuse_distances(
    graph: TaskGraph, order: Sequence[int]
) -> List[Optional[int]]:
    """Stack distance per data access in the given task order.

    Accesses are the flattened input lists of the tasks in ``order``;
    a first-ever access yields ``None`` (compulsory miss).
    """
    stack: List[int] = []  # most recent at the end
    out: List[Optional[int]] = []
    for t in order:
        for d in graph.inputs_of(t):
            if d in stack:
                pos = stack.index(d)
                out.append(len(stack) - 1 - pos)
                stack.pop(pos)
            else:
                out.append(None)
            stack.append(d)
    return out


@dataclass(frozen=True)
class ReuseSummary:
    accesses: int
    compulsory: int
    mean_distance: float
    max_distance: int


def reuse_summary(graph: TaskGraph, order: Sequence[int]) -> ReuseSummary:
    """Aggregate reuse statistics for one GPU's executed order."""
    distances = reuse_distances(graph, order)
    finite = [d for d in distances if d is not None]
    return ReuseSummary(
        accesses=len(distances),
        compulsory=len(distances) - len(finite),
        mean_distance=sum(finite) / len(finite) if finite else 0.0,
        max_distance=max(finite) if finite else 0,
    )


def predicted_loads(
    graph: TaskGraph, order: Sequence[int], capacity_items: int
) -> int:
    """Loads an LRU memory of ``capacity_items`` would do on this order.

    Computed via stack distances over the per-access stream.  Exactly
    equals ``replay_schedule(..., policy="lru")`` for single-input
    tasks; for multi-input tasks the replay additionally protects the
    current task's inputs from evicting each other, so the replay count
    can be slightly lower (cross-checked in tests).
    """
    distances = reuse_distances(graph, order)
    return sum(
        1 for d in distances if d is None or d >= capacity_items
    )
