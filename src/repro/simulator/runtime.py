"""StarPU-like runtime driving pluggable schedulers over the simulator.

Compatibility facade.  The runtime used to be one god-class in this
module; it is now a layered kernel (see :mod:`repro.simulator.kernel`
for the module map).  :class:`Runtime` keeps the historical constructor
signature and attribute surface (``engine``, ``memories``, ``workers``,
``view``, ``trace``, ``sanitizer``…) on top of
:class:`~repro.simulator.kernel.RuntimeKernel`, so existing callers and
tests keep working unchanged; :func:`simulate` remains the one-call
entry point.

Model recap: each GPU runs a worker with a bounded **task buffer** (the
paper's ``taskBuffer_k``): tasks popped from the scheduler whose input
fetches have been issued (prefetch).  The head task starts executing as
soon as all its inputs are resident; fetches for deeper tasks overlap
with execution.  Inputs of the executing task are pinned; buffered
tasks' inputs are *not*, so an eviction policy may throw them out again
— the re-fetch then counts as an extra load (the "domino effect" of the
paper).  Admission control keeps the union of input footprints of the
executing plus buffered tasks within the GPU memory, which is what
guarantees the simulation can always make progress.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Type, Union

from repro.core.problem import TaskGraph
from repro.platform.spec import PlatformSpec
from repro.schedulers.base import Scheduler
from repro.simulator.faults import FaultPlan
from repro.simulator.kernel import RuntimeKernel, SimulationDeadlock
from repro.simulator.sanitizer import Sanitizer
from repro.simulator.trace import RunResult
from repro.simulator.view import RuntimeView

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eviction import EvictionPolicy

__all__ = ["Runtime", "RuntimeView", "SimulationDeadlock", "simulate"]


class Runtime(RuntimeKernel):
    """One simulated execution of ``graph`` on ``platform`` by ``scheduler``.

    Thin alias of :class:`~repro.simulator.kernel.RuntimeKernel`; kept
    so ``repro.simulator.runtime.Runtime`` stays the stable public name.
    """


def simulate(
    graph: TaskGraph,
    platform: PlatformSpec,
    scheduler: Scheduler,
    eviction: Union[str, Type[EvictionPolicy]] = "lru",
    window: int = 2,
    seed: int = 0,
    record_trace: bool = False,
    decision_op_cost: float = 5e-8,
    dependencies: Optional[object] = None,
    sanitize: Union[None, bool, Sanitizer] = None,
    faults: Optional[FaultPlan] = None,
) -> RunResult:
    """Run ``graph`` on ``platform`` under ``scheduler`` and return stats.

    ``eviction`` names a policy from :mod:`repro.eviction` (one of
    ``POLICY_NAMES``: ``"belady"``, ``"fifo"``, ``"lru"``, ``"luf"``,
    ``"random"``) or is an ``EvictionPolicy`` subclass; either way
    :func:`repro.eviction.make_policy` builds one per GPU and hands it
    the scheduler (LUF reads DARTS's planned tasks).  ``window`` is the per-GPU task
    buffer depth (prefetch lookahead).  ``decision_op_cost`` converts a
    scheduler's reported inner-loop operations into virtual seconds of
    decision latency (0 disables decision-cost modelling).
    ``dependencies`` is a :class:`repro.dag.DependencySet` (or an edge
    list); tasks only become schedulable once their predecessors ran.
    ``sanitize`` turns on the model-invariant sanitizer for this run
    (``True``, or a :class:`repro.simulator.sanitizer.Sanitizer` to
    collect violations); ``None`` defers to the module-level switch.
    ``faults`` is a :class:`repro.simulator.faults.FaultPlan` of
    deterministic injected failures; an empty (or absent) plan leaves
    the run byte-identical to a fault-free one.
    """
    return Runtime(
        graph,
        platform,
        scheduler,
        eviction=eviction,
        window=window,
        seed=seed,
        record_trace=record_trace,
        decision_op_cost=decision_op_cost,
        dependencies=dependencies,
        sanitize=sanitize,
        faults=faults,
    ).run()
