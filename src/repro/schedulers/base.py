"""Scheduler interface against the StarPU-like runtime.

A scheduler sees the full set of submitted tasks (they are independent,
so all are ready from the start — the paper's setting) and is driven by
the runtime through three kinds of callbacks:

* :meth:`Scheduler.prepare` — one-shot static phase (partitioning,
  packing) before virtual time starts; its wall-clock cost is what the
  paper charges as "scheduling time" for mHFP / hMETIS+R;
* :meth:`Scheduler.next_task` — a GPU's task buffer has room: return the
  next task id for that GPU, or ``None`` if it has nothing to do now;
* notifications — task completions, data loads, and evictions, which
  dynamic strategies (DARTS) and stealing react to.

Schedulers never touch simulator internals directly; they query memory
state through the :class:`repro.simulator.runtime.RuntimeView` handed to
``prepare``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.runtime import RuntimeView


class Scheduler:
    """Base class; concrete strategies override the hooks they need."""

    #: Display name used in reports ("EAGER", "DMDAR", "DARTS+LUF", ...).
    name = "abstract"

    def __init__(self) -> None:
        self.view: Optional["RuntimeView"] = None
        self._ops = 0

    # ------------------------------------------------------------------
    # decision-cost accounting
    # ------------------------------------------------------------------
    def charge_ops(self, n: int) -> None:
        """Record ``n`` inner-loop operations spent deciding.

        The runtime converts accumulated operations into *virtual* time
        (``decision_op_cost`` seconds each, calibrated to a C-speed
        implementation) that gates when the decided task may start.
        This models the paper's scheduling-time effects (mHFP's packing
        aside — that is a static phase) deterministically, independent of
        how fast the host Python happens to run.
        """
        self._ops += n

    def consume_ops(self) -> int:
        """Return and reset the operation counter (runtime hook)."""
        ops = self._ops
        self._ops = 0
        return ops

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def prepare(self, view: "RuntimeView") -> None:
        """Static phase.  Store the view; heavy work (partitioning) here."""
        self.view = view

    def next_task(self, gpu: int) -> Optional[int]:
        """Next task for ``gpu``, or ``None`` if it has nothing to run now.

        Returning a task transfers ownership: the runtime *will* execute
        it on ``gpu`` (its data may be prefetched immediately), matching
        the paper's ``taskBuffer`` semantics.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # notifications (optional)
    # ------------------------------------------------------------------
    def task_done(self, gpu: int, task_id: int) -> None:
        """Task finished executing on ``gpu``."""

    def on_data_loaded(self, gpu: int, data_id: int) -> None:
        """A fetch of ``data_id`` into ``gpu``'s memory completed."""

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        """``data_id`` joined ``gpu``'s held set: a fetch was *issued*
        (space reserved, transfer in flight) or an output slot was
        allocated.  It fires on every held-set entry, so schedulers that
        mirror the held set incrementally (DARTS's free-task index,
        Ready's missing-bytes cache) update on this hook, not on
        completion.

        Must not call :meth:`charge_ops`: index maintenance replaces
        rescans whose modeled cost is charged at decision time by the
        existing ``charge_ops`` call sites — charging here would change
        ``virtual_decision_time`` and thus the simulated trace.
        """

    def on_data_evicted(self, gpu: int, data_id: int) -> None:
        """``data_id`` was evicted from ``gpu``'s memory."""

    def on_device_lost(self, gpu: int, requeued: Sequence[int]) -> None:
        """GPU ``gpu`` failed permanently; ``requeued`` are the tasks it
        was running or had buffered, returned to this scheduler to place
        on the surviving devices.

        Every scheduler holding per-GPU structures (allocation lists,
        free-task indices, cached device counts) MUST rebalance here —
        handing out a task for a dead GPU afterwards is a runtime error.
        The base deliberately raises instead of silently dropping the
        tasks: a scheduler that cannot recover must fail loudly (the
        API004 lint rule flags strategies that cache the device list
        without implementing this hook).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement on_device_lost; "
            "it cannot survive device failure (tasks "
            f"{list(requeued)} from GPU {gpu} would be lost)"
        )

    # ------------------------------------------------------------------
    # introspection (used by the LUF eviction policy and reports)
    # ------------------------------------------------------------------
    def planned_tasks(self, gpu: int) -> Sequence[int]:
        """Tasks reserved for ``gpu`` but not yet handed to the runtime.

        DARTS's ``plannedTasks_k``; empty for schedulers without such a
        reservation structure.
        """
        return ()

    def remaining_order(self, gpu: int) -> Sequence[int]:
        """Known future task order for ``gpu`` beyond the task buffer.

        Static schedulers (mHFP, hMETIS+R, fixed schedules) expose their
        remaining per-GPU list so the online Belady eviction policy can be
        exact; dynamic schedulers return the default empty sequence.
        """
        return ()
