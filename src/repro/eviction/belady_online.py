"""Belady's rule online, for schedulers whose future order is known.

Only static schedulers (mHFP, hMETIS+R and fixed-schedule replays) can
expose their remaining per-GPU order; for them this policy realises the
offline-optimal eviction of the paper's Section III inside the simulator.
Dynamic schedulers expose nothing, in which case the policy degrades to
"evict anything not needed by the task buffer" with LRU ordering as the
tiebreak — it never crashes, but it is only *optimal* with full knowledge.

The analytic replay (:func:`repro.core.schedule.replay_schedule`) drives
this same class, with the rest of σ as the task buffer.  The rule itself
is :func:`repro.core.belady.belady_victim`.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Set

from repro.core.belady import belady_victim
from repro.eviction.base import EvictionPolicy


class OnlineBeladyPolicy(EvictionPolicy):
    """Evict the candidate whose next known use is furthest in the future."""

    name = "belady"

    def __init__(self, gpu, view=None, scheduler=None) -> None:
        super().__init__(gpu, view, scheduler)
        self._stamp: Dict[int, int] = {}
        self._clock = 0

    def on_insert(self, data_id: int) -> None:
        self._clock += 1
        self._stamp[data_id] = self._clock

    def on_access(self, data_id: int) -> None:
        self._clock += 1
        self._stamp[data_id] = self._clock

    def on_evict(self, data_id: int) -> None:
        self._stamp.pop(data_id, None)

    def choose_victim(self, candidates: Set[int]) -> int:
        assert self.view is not None
        inputs_of = self.view.graph.inputs_of
        future: Iterable[int] = self.view.task_buffer(self.gpu)
        if self.scheduler is not None:
            future = chain(future, self.scheduler.remaining_order(self.gpu))
        # Among data never used again (as far as we know), the least
        # recently used goes first.
        return belady_victim(
            candidates,
            map(inputs_of, future),
            unused_key=lambda d: (self._stamp.get(d, -1), d),
        )
