"""Least Used in the Future — the paper's Algorithm 6 (DARTS+LUF).

When an eviction is needed on GPU ``k``:

1. for each resident candidate ``D``, compute ``nb(D)`` (uses of ``D`` by
   tasks in ``taskBuffer_k`` — tasks already handed to the runtime, whose
   placement cannot change) and ``np(D)`` (uses by tasks in
   ``plannedTasks_k`` — reserved by DARTS but still revocable);
2. if some candidate has ``nb(D) = 0``, evict the one among them with
   minimal ``np(D)``;
3. otherwise fall back to Belady's rule over the task buffer: evict the
   candidate whose next use there is furthest in the future.

The scheduler is then notified through ``on_data_evicted`` and removes
the planned tasks that depended on the victim (Algorithm 6, line 8) —
that part lives in :class:`repro.schedulers.darts.Darts`.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.core.belady import belady_victim
from repro.eviction.base import EvictionPolicy


class LufPolicy(EvictionPolicy):
    """Least Used in the Future (Algorithm 6)."""

    name = "luf"

    def _counts(
        self, candidates: Set[int]
    ) -> Tuple[Dict[int, int], Dict[int, int], List[int]]:
        assert self.view is not None
        graph = self.view.graph
        buffer = self.view.task_buffer(self.gpu)
        planned = (
            self.scheduler.planned_tasks(self.gpu)
            if self.scheduler is not None
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

    def choose_victim(self, candidates: Set[int]) -> int:
        nb, np_, buffer = self._counts(candidates)
        unused = [d for d in sorted(candidates) if nb[d] == 0]
        if unused:
            return min(unused, key=lambda d: (np_[d], d))
        # Belady fallback over the task buffer (rarely reached, per paper).
        return belady_victim(candidates, map(self.view.graph.inputs_of, buffer))
