"""Schedules σ with explicit eviction sets V, and their analytic replay.

The paper (Section III) describes a schedule on GPU ``k`` as ``nb_k`` steps;
step ``i`` (1) evicts the data in ``V(k, i)``, (2) loads the missing inputs
of ``T_σ(k,i)``, (3) runs the task.  The live set obeys

    ``L(k, i) = (L(k, i-1) \\ V(k, i)) ∪ D(T_σ(k,i))``  with  ``|L(k,i)| ≤ M``

and the number of loads is ``Σ_i |D(T_σ(k,i)) \\ L(k, i-1)|``.

:func:`replay_schedule` executes this state machine for a given task order
and eviction policy, returning the exact load/eviction sequence — the
*analytic* evaluation path (no timing, no bus).  It drives the same
:mod:`repro.eviction` policy classes as the simulator's memories, through
a view whose task buffer is the rest of σ, so each eviction rule has one
implementation.  It is the reference the discrete-event simulator and
all tests are checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

from repro.core.problem import TaskGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.eviction.base import EvictionPolicy


class InfeasibleScheduleError(Exception):
    """A task's inputs exceed the memory bound, or σ is malformed."""


@dataclass
class Schedule:
    """A task partition and per-GPU processing order (the σ of the paper).

    ``order[k]`` is the ordered list of task ids processed by GPU ``k``.
    """

    order: List[List[int]]

    @classmethod
    def single_gpu(cls, tasks: Sequence[int]) -> "Schedule":
        return cls(order=[list(tasks)])

    @property
    def n_gpus(self) -> int:
        return len(self.order)

    def nb(self, k: int) -> int:
        """``nb_k``: number of tasks on GPU ``k``."""
        return len(self.order[k])

    @property
    def max_load(self) -> int:
        """Objective 1: ``max_k nb_k``."""
        return max((len(o) for o in self.order), default=0)

    @property
    def all_tasks(self) -> List[int]:
        out: List[int] = []
        for o in self.order:
            out.extend(o)
        return out

    def validate(self, graph: TaskGraph) -> None:
        """Every task of ``graph`` appears exactly once across all GPUs."""
        seen = self.all_tasks
        if len(seen) != graph.n_tasks or set(seen) != set(range(graph.n_tasks)):
            missing = set(range(graph.n_tasks)) - set(seen)
            dupes = len(seen) - len(set(seen))
            raise InfeasibleScheduleError(
                f"schedule covers {len(set(seen))}/{graph.n_tasks} tasks "
                f"({len(missing)} missing, {dupes} duplicated)"
            )

    def validate_partial(self, graph: TaskGraph) -> None:
        """Ids are valid and no task appears twice (subset schedules OK)."""
        seen = self.all_tasks
        if len(seen) != len(set(seen)):
            raise InfeasibleScheduleError("a task appears more than once")
        for t in seen:
            if t < 0 or t >= graph.n_tasks:
                raise InfeasibleScheduleError(f"unknown task id {t}")


class _ReplayView:
    """The slice of :class:`~repro.simulator.view.RuntimeView` an eviction
    policy reads, over a fixed σ.

    ``task_buffer(gpu)`` is the not-yet-run suffix of ``gpu``'s order,
    current task first: the whole future is known, so Belady and LUF see
    all of it.  ``rng`` seeds :class:`~repro.eviction.RandomPolicy`.
    """

    def __init__(self, graph: TaskGraph, schedule: Schedule) -> None:
        self.graph = graph
        self.rng = random.Random(0)
        self._order = schedule.order
        self.step = 0

    def task_buffer(self, gpu: int) -> List[int]:
        return self._order[gpu][self.step :]


@dataclass
class GpuReplay:
    """Per-GPU replay outcome."""

    loads: List[Tuple[int, int]] = field(default_factory=list)  # (step, data)
    evictions: List[Tuple[int, int]] = field(default_factory=list)
    live_sizes: List[int] = field(default_factory=list)  # |L(k, i)| per step
    bytes_loaded: float = 0.0

    @property
    def n_loads(self) -> int:
        return len(self.loads)

    def eviction_sets(self) -> List[List[int]]:
        """The ``V(k, i)`` sets, one list per step (may be empty)."""
        n_steps = len(self.live_sizes)
        out: List[List[int]] = [[] for _ in range(n_steps)]
        for step, d in self.evictions:
            out[step].append(d)
        return out


@dataclass
class ReplayResult:
    """Outcome of :func:`replay_schedule` over all GPUs."""

    gpus: List[GpuReplay]
    policy_name: str

    @property
    def total_loads(self) -> int:
        """Objective 2: ``Σ_k #Loads_k``."""
        return sum(g.n_loads for g in self.gpus)

    @property
    def total_bytes(self) -> float:
        return sum(g.bytes_loaded for g in self.gpus)

    @property
    def max_live(self) -> int:
        return max((max(g.live_sizes) for g in self.gpus if g.live_sizes), default=0)


def replay_schedule(
    graph: TaskGraph,
    schedule: Schedule,
    capacity_items: Optional[int] = None,
    policy: Union[str, Type["EvictionPolicy"]] = "lru",
    capacity_bytes: Optional[float] = None,
) -> ReplayResult:
    """Execute σ analytically and count loads and evictions exactly.

    Capacity is given either as ``capacity_items`` (the paper's ``M``:
    number of equal-size data) or ``capacity_bytes`` for heterogeneous
    sizes.  Exactly one must be provided, or neither for unlimited memory.

    ``policy`` names a rule of :data:`repro.eviction.POLICY_NAMES` or is
    an :class:`~repro.eviction.EvictionPolicy` subclass; one instance is
    built per GPU, over a view whose task buffer is the GPU's remaining
    order.

    Data are loaded as late as possible and evictions happen only when the
    memory is full, matching the paper's model.  Inputs of the current task
    are never chosen as victims (``V(k,i) ∩ D(T_σ(k,i)) = ∅``).

    The schedule may cover a subset of the graph's tasks (used to replay a
    single package or a brute-force partition leg); completeness is the
    caller's concern via :meth:`Schedule.validate`.
    """
    from repro.eviction import make_policy

    schedule.validate_partial(graph)
    if capacity_items is not None and capacity_bytes is not None:
        raise ValueError("give capacity_items or capacity_bytes, not both")

    if capacity_bytes is None:
        if capacity_items is None:
            capacity_bytes = float("inf")
        else:
            usz = graph.uniform_data_size()
            if usz is None:
                raise ValueError(
                    "capacity_items requires uniform data sizes; "
                    "use capacity_bytes instead"
                )
            capacity_bytes = capacity_items * usz

    view = _ReplayView(graph, schedule)
    sizes = [d.size for d in graph.data]
    name = policy if isinstance(policy, str) else policy.name
    result = ReplayResult(gpus=[], policy_name=name)

    for k in range(schedule.n_gpus):
        pol = make_policy(policy, k, view, None)
        gpu = GpuReplay()
        resident: Set[int] = set()
        used = 0.0

        for step, task_id in enumerate(schedule.order[k]):
            view.step = step
            inputs = graph.inputs_of(task_id)
            need = sum(sizes[d] for d in inputs)
            if need > capacity_bytes:
                raise InfeasibleScheduleError(
                    f"task {task_id} needs {need:.0f}B > capacity "
                    f"{capacity_bytes:.0f}B on GPU {k}"
                )
            protected = set(inputs)
            for d in sorted(protected - resident):
                while used + sizes[d] > capacity_bytes:
                    candidates = resident - protected
                    if not candidates:
                        raise InfeasibleScheduleError(
                            f"GPU {k} step {step}: nothing evictable while "
                            f"loading data {d} for task {task_id}"
                        )
                    victim = pol.choose_victim(candidates)
                    if victim not in candidates:
                        raise InfeasibleScheduleError(
                            f"policy {name} returned non-candidate {victim}"
                        )
                    resident.discard(victim)
                    used -= sizes[victim]
                    pol.on_evict(victim)
                    gpu.evictions.append((step, victim))
                resident.add(d)
                used += sizes[d]
                pol.on_insert(d)
                gpu.loads.append((step, d))
                gpu.bytes_loaded += sizes[d]
            for d in inputs:
                pol.on_access(d)
            gpu.live_sizes.append(len(resident))

        result.gpus.append(gpu)
    return result


def verify_live_set_recursion(
    graph: TaskGraph,
    schedule: Schedule,
    result: ReplayResult,
    capacity_items: Optional[int] = None,
) -> None:
    """Re-derive ``L(k, i)`` from the paper's recursion and cross-check.

    Raises ``AssertionError`` if the replay's live-set sizes diverge from
    the recursion, or if the memory bound is violated.  Used by tests.
    """
    for k in range(schedule.n_gpus):
        order = schedule.order[k]
        ev_sets = result.gpus[k].eviction_sets()
        live: Set[int] = set()
        for i, task_id in enumerate(order):
            live -= set(ev_sets[i])
            live |= set(graph.inputs_of(task_id))
            assert len(live) == result.gpus[k].live_sizes[i], (
                f"GPU {k} step {i}: recursion says |L|={len(live)}, "
                f"replay recorded {result.gpus[k].live_sizes[i]}"
            )
            if capacity_items is not None:
                assert len(live) <= capacity_items, (
                    f"GPU {k} step {i}: |L|={len(live)} > M={capacity_items}"
                )
