"""Schedules σ with explicit eviction sets V, and their analytic replay.

The paper (Section III) describes a schedule on GPU ``k`` as ``nb_k`` steps;
step ``i`` (1) evicts the data in ``V(k, i)``, (2) loads the missing inputs
of ``T_σ(k,i)``, (3) runs the task.  The live set obeys

    ``L(k, i) = (L(k, i-1) \\ V(k, i)) ∪ D(T_σ(k,i))``  with  ``|L(k,i)| ≤ M``

and the number of loads is ``Σ_i |D(T_σ(k,i)) \\ L(k, i-1)|``.

:func:`replay_schedule` executes this state machine for a given task order
and eviction policy, returning the exact load/eviction sequence — the
*analytic* evaluation path (no timing, no bus).  It is the reference
implementation the discrete-event simulator and all tests are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.problem import TaskGraph


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

    def gpu_of(self) -> Dict[int, int]:
        """Map task id -> GPU index."""
        return {t: k for k, o in enumerate(self.order) for t in o}

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


class ReplayPolicy:
    """Offline eviction policy interface for :func:`replay_schedule`.

    A policy sees the per-GPU access stream and must pick a victim among
    evictable resident data.  Subclasses override :meth:`choose_victim`
    and any of the notification hooks.
    """

    name = "abstract"

    def reset(self) -> None:
        """Called once per GPU before its replay starts."""

    def on_load(self, data_id: int, step: int) -> None:
        """``data_id`` was just loaded before task index ``step``."""

    def on_access(self, data_id: int, step: int) -> None:
        """``data_id`` is used by the task at index ``step``."""

    def on_evict(self, data_id: int, step: int) -> None:
        """``data_id`` was evicted before task index ``step``."""

    def choose_victim(
        self,
        candidates: Set[int],
        step: int,
        future: Sequence[Tuple[int, ...]],
    ) -> int:
        """Pick one of ``candidates`` to evict.

        ``future`` holds the input tuples of tasks at indices ``step``,
        ``step+1``, ... on this GPU (the current task first), so Belady-like
        policies can look ahead.
        """
        raise NotImplementedError


class LruReplay(ReplayPolicy):
    """Least Recently Used: evict the candidate with the oldest access."""

    name = "lru"

    def __init__(self) -> None:
        self._stamp: Dict[int, int] = {}
        self._clock = 0

    def reset(self) -> None:
        self._stamp.clear()
        self._clock = 0

    def _touch(self, d: int) -> None:
        self._clock += 1
        self._stamp[d] = self._clock

    def on_load(self, data_id: int, step: int) -> None:
        self._touch(data_id)

    def on_access(self, data_id: int, step: int) -> None:
        self._touch(data_id)

    def on_evict(self, data_id: int, step: int) -> None:
        self._stamp.pop(data_id, None)

    def choose_victim(
        self,
        candidates: Set[int],
        step: int,
        future: Sequence[Tuple[int, ...]],
    ) -> int:
        return min(candidates, key=lambda d: (self._stamp.get(d, -1), d))


class FifoReplay(ReplayPolicy):
    """First-In First-Out: evict the candidate loaded the longest ago."""

    name = "fifo"

    def __init__(self) -> None:
        self._loaded_at: Dict[int, int] = {}
        self._clock = 0

    def reset(self) -> None:
        self._loaded_at.clear()
        self._clock = 0

    def on_load(self, data_id: int, step: int) -> None:
        self._clock += 1
        self._loaded_at[data_id] = self._clock

    def on_evict(self, data_id: int, step: int) -> None:
        self._loaded_at.pop(data_id, None)

    def choose_victim(
        self,
        candidates: Set[int],
        step: int,
        future: Sequence[Tuple[int, ...]],
    ) -> int:
        return min(candidates, key=lambda d: (self._loaded_at.get(d, -1), d))


def next_use_distance(
    data_id: int, future: Sequence[Tuple[int, ...]]
) -> Optional[int]:
    """Steps until ``data_id`` is next used, or ``None`` if never again.

    ``future[0]`` is the current step's input tuple.
    """
    for offset, inputs in enumerate(future):
        if data_id in inputs:
            return offset
    return None


def belady_victim(
    candidates: Iterable[int], future: Sequence[Tuple[int, ...]]
) -> int:
    """The Belady victim among ``candidates`` given the upcoming accesses.

    A candidate never used again is always preferred; ties are broken by
    smallest data id so the choice is deterministic.
    """
    best_d = -1
    best_dist = -1
    for d in sorted(candidates):
        dist = next_use_distance(d, future)
        if dist is None:
            return d
        if dist > best_dist:
            best_dist, best_d = dist, d
    if best_d < 0:
        raise ValueError("belady_victim called with no candidates")
    return best_d


class BeladyReplay(ReplayPolicy):
    """Belady/MIN: evict the candidate whose next use is furthest away.

    Optimal for a fixed σ (paper Section III); ties and never-used-again
    candidates are broken by smallest id for determinism.
    """

    name = "belady"

    def choose_victim(
        self,
        candidates: Set[int],
        step: int,
        future: Sequence[Tuple[int, ...]],
    ) -> int:
        return belady_victim(candidates, future)


_REPLAY_POLICIES = {
    "lru": LruReplay,
    "fifo": FifoReplay,
    "belady": BeladyReplay,
}


def make_replay_policy(policy: Union[str, ReplayPolicy]) -> ReplayPolicy:
    """Instantiate a replay policy from its name, or pass one through."""
    if isinstance(policy, ReplayPolicy):
        return policy
    try:
        return _REPLAY_POLICIES[policy]()
    except KeyError:
        raise ValueError(
            f"unknown replay policy {policy!r}; expected one of "
            f"{sorted(_REPLAY_POLICIES)} or a ReplayPolicy instance"
        ) from None


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

    def loads_on(self, k: int) -> int:
        return self.gpus[k].n_loads

    @property
    def max_live(self) -> int:
        return max((max(g.live_sizes) for g in self.gpus if g.live_sizes), default=0)


def replay_schedule(
    graph: TaskGraph,
    schedule: Schedule,
    capacity_items: Optional[int] = None,
    policy: Union[str, ReplayPolicy] = "lru",
    capacity_bytes: Optional[float] = None,
) -> ReplayResult:
    """Execute σ analytically and count loads and evictions exactly.

    Capacity is given either as ``capacity_items`` (the paper's ``M``:
    number of equal-size data) or ``capacity_bytes`` for heterogeneous
    sizes.  Exactly one must be provided, or neither for unlimited memory.

    Data are loaded as late as possible and evictions happen only when the
    memory is full, matching the paper's model.  Inputs of the current task
    are never chosen as victims (``V(k,i) ∩ D(T_σ(k,i)) = ∅``).

    The schedule may cover a subset of the graph's tasks (used to replay a
    single package or a brute-force partition leg); completeness is the
    caller's concern via :meth:`Schedule.validate`.
    """
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

    pol = make_replay_policy(policy)
    sizes = [d.size for d in graph.data]
    result = ReplayResult(gpus=[], policy_name=pol.name)

    for k in range(schedule.n_gpus):
        order = schedule.order[k]
        future_inputs: List[Tuple[int, ...]] = [graph.inputs_of(t) for t in order]
        pol.reset()
        gpu = GpuReplay()
        resident: Set[int] = set()
        used = 0.0

        for step, task_id in enumerate(order):
            inputs = graph.inputs_of(task_id)
            need = sum(sizes[d] for d in inputs)
            if need > capacity_bytes:
                raise InfeasibleScheduleError(
                    f"task {task_id} needs {need:.0f}B > capacity "
                    f"{capacity_bytes:.0f}B on GPU {k}"
                )
            protected = set(inputs)
            for d in sorted(set(inputs) - resident):
                while used + sizes[d] > capacity_bytes:
                    candidates = resident - protected
                    if not candidates:
                        raise InfeasibleScheduleError(
                            f"GPU {k} step {step}: nothing evictable while "
                            f"loading data {d} for task {task_id}"
                        )
                    victim = pol.choose_victim(
                        candidates, step, future_inputs[step:]
                    )
                    if victim not in candidates:
                        raise InfeasibleScheduleError(
                            f"policy {pol.name} returned non-candidate {victim}"
                        )
                    resident.discard(victim)
                    used -= sizes[victim]
                    pol.on_evict(victim, step)
                    gpu.evictions.append((step, victim))
                resident.add(d)
                used += sizes[d]
                pol.on_load(d, step)
                gpu.loads.append((step, d))
                gpu.bytes_loaded += sizes[d]
            for d in inputs:
                pol.on_access(d, step)
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
