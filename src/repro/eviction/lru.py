"""Least Recently Used — StarPU's default eviction policy.

The paper runs every scheduler except DARTS+LUF on LRU, and attributes
both EAGER's collapse on row-major 2D matmul and DARTS's "domino effect"
to pathological LRU behaviour under memory pressure.
"""

from __future__ import annotations

from typing import Dict, Set

from repro.eviction.base import EvictionPolicy


class LruPolicy(EvictionPolicy):
    """Evict the candidate whose last load-or-use is the oldest.

    ``_order`` holds the touched data in recency order, oldest first (a
    touch moves its key to the end), so the victim is the first key
    that is a candidate; a candidate never touched is older than any
    touched one, and ids break ties between those.
    """

    name = "lru"

    def __init__(self, gpu, view=None, scheduler=None) -> None:
        super().__init__(gpu, view, scheduler)
        self._order: Dict[int, None] = {}

    def _touch(self, d: int) -> None:
        self._order.pop(d, None)
        self._order[d] = None

    def on_insert(self, data_id: int) -> None:
        self._touch(data_id)

    def on_access(self, data_id: int) -> None:
        self._touch(data_id)

    def on_evict(self, data_id: int) -> None:
        self._order.pop(data_id, None)

    def choose_victim(self, candidates: Set[int]) -> int:
        untouched = candidates - self._order.keys()
        if untouched:
            return min(untouched)
        return next(filter(candidates.__contains__, self._order))
