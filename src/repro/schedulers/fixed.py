"""Replay a precomputed :class:`repro.core.Schedule` in the simulator.

Bridges the analytic model and the discrete-event simulator: any static
σ (brute-force optimal, hand-written, or produced by packing/partitioning
outside a runtime) can be executed with timing, bus contention and a real
eviction policy.  The replay is pure: each GPU runs its list in order,
without Ready reordering or stealing (sanitizer rule SAN006 checks the
executed order).
"""

from __future__ import annotations

from typing import List

from repro.core.schedule import Schedule
from repro.schedulers.ready import ListScheduler


class FixedSchedule(ListScheduler):
    """Execute the given per-GPU task lists as-is."""

    name = "FIXED"
    use_ready = False

    def __init__(self, schedule: Schedule) -> None:
        super().__init__()
        self.schedule = schedule

    def allocate(self, view) -> List[List[int]]:
        if self.schedule.n_gpus != view.n_gpus:
            raise ValueError(
                f"schedule targets {self.schedule.n_gpus} GPUs but the "
                f"platform has {view.n_gpus}"
            )
        return self.schedule.order
