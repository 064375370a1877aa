"""Least Used in the Future — the paper's Algorithm 6 (DARTS+LUF).

When an eviction is needed on GPU ``k``, with ``nb(D)`` the uses of a
resident candidate ``D`` by tasks in ``taskBuffer_k`` (tasks already
handed to the runtime, whose placement cannot change) and ``np(D)`` its
uses by tasks in ``plannedTasks_k`` (reserved by DARTS but still
revocable):

1. if some candidate has ``nb(D) = 0``, evict the one among them with
   minimal ``np(D)``, the smallest id breaking ties;
2. otherwise fall back to Belady's rule over the task buffer: evict the
   candidate whose next use there is furthest in the future.

``nb`` is never counted: the candidates with ``nb(D) = 0`` are a set
difference with the buffer's inputs.  Those among them with
``np(D) = 0`` are a second difference, with the planned tasks' inputs,
and ``np`` is counted only when that one is empty.

The scheduler is then notified through ``on_data_evicted`` and removes
the planned tasks that depended on the victim (Algorithm 6, line 8) —
that part lives in :class:`repro.schedulers.darts.Darts`.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Set

from repro.core.belady import belady_victim
from repro.eviction.base import EvictionPolicy


class LufPolicy(EvictionPolicy):
    """Least Used in the Future (Algorithm 6)."""

    name = "luf"

    def choose_victim(self, candidates: Set[int]) -> int:
        assert self.view is not None
        inputs_of = self.view.graph.inputs_of
        read_by = lambda tasks: chain.from_iterable(map(inputs_of, tasks))
        buffer = self.view.task_buffer(self.gpu)
        unused = candidates.difference(read_by(buffer))
        if not unused:
            # Belady fallback over the task buffer (rarely reached, per paper).
            return belady_victim(candidates, map(inputs_of, buffer))
        sched = self.scheduler
        planned = sched.planned_tasks(self.gpu) if sched is not None else ()
        never_planned = unused.difference(read_by(planned))
        if never_planned:
            return min(never_planned)
        np_: Dict[int, int] = dict.fromkeys(unused, 0)
        for t in planned:
            for d in inputs_of(t):
                if d in np_:
                    np_[d] += 1
        return min(unused, key=lambda d: (np_[d], d))
