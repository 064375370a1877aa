"""Runtime trace sanitizer: §III model invariants checked on every run.

Opt-in layer that watches a :class:`repro.simulator.runtime.Runtime`
execute and verifies the invariants the paper's evaluation rests on:

========  ==========================================================
SAN001    per-GPU memory usage never exceeds capacity (``|L| ≤ M``)
SAN002    a task only starts with all inputs resident *and pinned*
SAN003    pinned data are never evicted
SAN004    bus-bandwidth conservation: cumulative bytes moved over a
          link never exceed ``bandwidth × elapsed`` (fluid model)
SAN005    event-time monotonicity in the discrete-event core
SAN006    load counts at least the analytic ``core.schedule`` Belady
          replay of the executed order (the offline lower bound), and
          static fixed schedules executed in their given order
SAN007    same-seed double runs produce identical trace digests
SAN008    every task completes exactly once, despite fault-injection
          requeues (no loss, no duplicate execution)
SAN009    no fetch is ever sourced from a failed device or a lost
          replica (peer transfers only read surviving copies)
SAN010    after a device failure nothing starts, fetches, or evicts on
          the dead GPU, and the degraded-mode makespan is achievable
          with surviving-GPU capacity only
========  ==========================================================

Enable it three ways:

* globally — :func:`enable` / :func:`disable` (the test suite turns it
  on for every test via an autouse fixture, making each integration
  test an invariant test);
* per run — ``simulate(..., sanitize=True)`` or pass a
  :class:`Sanitizer` instance to collect violations without raising;
* scoped — ``with sanitized(): ...``.

In ``strict`` mode (the default) the first violation raises
:class:`SanitizerError`; with ``strict=False`` violations accumulate in
:attr:`Sanitizer.violations` for inspection.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Set

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.bus import Bus
    from repro.simulator.events import EventStream
    from repro.simulator.faults import FaultPlan
    from repro.simulator.memory import DeviceMemory
    from repro.simulator.runtime import Runtime

#: absolute slack for float accounting comparisons (bytes / seconds)
_TOL = 1e-6
#: relative slack for bus conservation (fluid-model rounding)
_REL_TOL = 1e-9

_enabled_depth = 0


def enable() -> None:
    """Turn the sanitizer on for every subsequently created Runtime."""
    global _enabled_depth
    _enabled_depth += 1


def disable() -> None:
    """Undo one :func:`enable` call."""
    global _enabled_depth
    _enabled_depth = max(0, _enabled_depth - 1)


def is_enabled() -> bool:
    return _enabled_depth > 0


@contextlib.contextmanager
def sanitized() -> Iterator[None]:
    """Enable the sanitizer for the duration of the ``with`` block."""
    enable()
    try:
        yield
    finally:
        disable()


class SanitizerError(AssertionError):
    """A model invariant was violated during a sanitized run."""


@dataclass(frozen=True)
class SanitizerViolation:
    """One detected invariant violation."""

    code: str
    message: str
    time: float
    gpu: Optional[int] = None

    def format(self) -> str:
        where = f" gpu={self.gpu}" if self.gpu is not None else ""
        return f"[{self.code}] t={self.time:.9g}{where}: {self.message}"


@dataclass
class Sanitizer:
    """Collects (or raises on) invariant violations of one or more runs."""

    strict: bool = True
    violations: List[SanitizerViolation] = field(default_factory=list)
    _last_event_time: float = field(default=float("-inf"), repr=False)
    # Fault-recovery accounting (SAN008–SAN010); reset by subscribe_to
    # so one Sanitizer instance can watch several runs.
    _tracking: bool = field(default=False, repr=False)
    _task_completions: Dict[int, int] = field(default_factory=dict, repr=False)
    _failed_gpus: Set[int] = field(default_factory=set, repr=False)
    _last_failure_time: float = field(default=float("-inf"), repr=False)
    _post_failure_flops: float = field(default=0.0, repr=False)

    def report(
        self,
        code: str,
        message: str,
        *,
        time: float = 0.0,
        gpu: Optional[int] = None,
    ) -> None:
        v = SanitizerViolation(code=code, message=message, time=time, gpu=gpu)
        self.violations.append(v)
        if self.strict:
            raise SanitizerError(v.format())

    # ------------------------------------------------------------------
    # event-stream wiring
    # ------------------------------------------------------------------
    def subscribe_to(
        self, stream: "EventStream", memories: Sequence["DeviceMemory"]
    ) -> None:
        """Attach every online check to ``stream``.

        ``memories`` lets the SAN002 task-start check inspect residency
        and pinning on the GPU the task starts on.  The kernel registers
        the sanitizer *first*, so violations are raised before trace
        recording or control reactions run for the same event.
        """
        from repro.simulator import events as ev

        stream.subscribe(
            lambda e: self.on_event(e.time, e.now), ev.EngineStep
        )
        stream.subscribe(
            lambda e: self.on_memory_update(e.gpu, e.used, e.capacity, e.time),
            ev.MemoryUsageChanged,
        )
        stream.subscribe(
            lambda e: self.on_evict(e.gpu, e.data_id, e.pinned, e.time),
            ev.EvictionStarted,
        )
        stream.subscribe(
            lambda e: self.on_transfer(e.bus, e.time), ev.TransferCompleted
        )
        stream.subscribe(
            lambda e: self.on_task_start(
                e.gpu, e.task, e.inputs, memories[e.gpu], e.time
            ),
            ev.TaskStarted,
        )
        # Fault-recovery checks (SAN008–SAN010).  State is reset here so
        # one instance can watch several runs in sequence.
        self._tracking = True
        self._task_completions = {}
        self._failed_gpus = set()
        self._last_failure_time = float("-inf")
        self._post_failure_flops = 0.0
        stream.subscribe(
            lambda e: self.on_task_complete(e.gpu, e.task, e.duration, e.flops, e.time),
            ev.TaskCompleted,
        )
        stream.subscribe(
            lambda e: self.on_device_failed(e.gpu, e.time), ev.DeviceFailed
        )
        stream.subscribe(
            lambda e: self.on_task_requeued(e.gpu, e.task, e.time),
            ev.TaskRequeued,
        )
        stream.subscribe(
            lambda e: self.on_peer_transfer(e.src, e.dst, e.data_id, e.time),
            ev.PeerTransferStarted,
        )
        stream.subscribe(
            lambda e: self.on_dead_gpu_activity(e.gpu, "fetch issued", e.time),
            ev.FetchIssued,
        )
        stream.subscribe(
            lambda e: self.on_dead_gpu_activity(
                e.gpu, "fetch completed", e.time
            ),
            ev.FetchCompleted,
        )

    # ------------------------------------------------------------------
    # engine events (SAN005)
    # ------------------------------------------------------------------
    def on_event(self, time: float, now: float) -> None:
        """Called by the engine before firing the event at ``time``."""
        if time < now - _TOL or time < self._last_event_time - _TOL:
            self.report(
                "SAN005",
                f"event time {time!r} fires before current time "
                f"{max(now, self._last_event_time)!r}",
                time=time,
            )
        self._last_event_time = max(self._last_event_time, time)

    # ------------------------------------------------------------------
    # memory hooks (SAN001 / SAN003)
    # ------------------------------------------------------------------
    def on_memory_update(
        self, gpu: int, used: float, capacity: float, now: float
    ) -> None:
        if used > capacity + _TOL:
            self.report(
                "SAN001",
                f"memory overrun: used {used:.0f}B > capacity "
                f"{capacity:.0f}B",
                time=now,
                gpu=gpu,
            )
        if used < -_TOL:
            self.report(
                "SAN001",
                f"negative memory accounting: used {used:.0f}B",
                time=now,
                gpu=gpu,
            )

    def on_evict(self, gpu: int, data_id: int, pinned: bool, now: float) -> None:
        if pinned:
            self.report(
                "SAN003",
                f"pinned datum {data_id} chosen for eviction",
                time=now,
                gpu=gpu,
            )
        self.on_dead_gpu_activity(gpu, f"eviction of datum {data_id}", now)

    # ------------------------------------------------------------------
    # bus observer (SAN004)
    # ------------------------------------------------------------------
    def on_transfer(self, bus: "Bus", now: float) -> None:
        """Called after a transfer completes and is accounted."""
        from repro.simulator.bus import _COMPLETION_TOL_BYTES

        spec = bus.spec
        consumed = (
            bus.bytes_transferred + bus.n_transfers * spec.latency * spec.bandwidth
        )
        budget = spec.bandwidth * now
        # The fluid bus force-completes transfers within its residual
        # tolerance, so each completion may overcount by that much.
        slack = bus.n_transfers * _COMPLETION_TOL_BYTES + _TOL
        if consumed > budget * (1 + _REL_TOL) + slack:
            self.report(
                "SAN004",
                f"bus conservation violated: {consumed:.3f} "
                f"bandwidth-equivalent bytes moved by t={now!r} but the "
                f"link budget is {budget:.3f}",
                time=now,
            )

    # ------------------------------------------------------------------
    # runtime hooks (SAN002 / SAN006)
    # ------------------------------------------------------------------
    def on_task_start(
        self,
        gpu: int,
        task_id: int,
        inputs: Sequence[int],
        memory: "DeviceMemory",
        now: float,
    ) -> None:
        for d in inputs:
            if not memory.is_present(d):
                self.report(
                    "SAN002",
                    f"task {task_id} started without resident input {d}",
                    time=now,
                    gpu=gpu,
                )
            elif not memory.is_pinned(d):
                self.report(
                    "SAN002",
                    f"task {task_id} started with unpinned input {d}",
                    time=now,
                    gpu=gpu,
                )
        self.on_dead_gpu_activity(gpu, f"start of task {task_id}", now)

    # ------------------------------------------------------------------
    # fault-recovery hooks (SAN008 / SAN009 / SAN010)
    # ------------------------------------------------------------------
    def on_task_complete(
        self, gpu: int, task_id: int, duration: float, flops: float, now: float
    ) -> None:
        count = self._task_completions.get(task_id, 0) + 1
        self._task_completions[task_id] = count
        if count > 1:
            self.report(
                "SAN008",
                f"task {task_id} completed {count} times (duplicate "
                "execution after a requeue)",
                time=now,
                gpu=gpu,
            )
        if self._failed_gpus:
            if gpu in self._failed_gpus:
                self.report(
                    "SAN010",
                    f"task {task_id} completed on failed GPU {gpu}",
                    time=now,
                    gpu=gpu,
                )
            elif now - duration >= self._last_failure_time - _TOL:
                # work entirely inside the degraded window counts toward
                # the surviving-capacity bound checked in after_run
                self._post_failure_flops += flops

    def on_device_failed(self, gpu: int, now: float) -> None:
        self._failed_gpus.add(gpu)
        self._last_failure_time = max(self._last_failure_time, now)

    def on_task_requeued(self, gpu: int, task_id: int, now: float) -> None:
        if self._task_completions.get(task_id, 0) > 0:
            self.report(
                "SAN008",
                f"already-completed task {task_id} was requeued from "
                f"failed GPU {gpu}",
                time=now,
                gpu=gpu,
            )

    def on_peer_transfer(
        self, src: int, dst: int, data_id: int, now: float
    ) -> None:
        if src in self._failed_gpus:
            self.report(
                "SAN009",
                f"fetch of datum {data_id} sourced from failed GPU {src} "
                "(lost replica)",
                time=now,
                gpu=dst,
            )
        self.on_dead_gpu_activity(dst, f"peer fetch of datum {data_id}", now)

    def on_dead_gpu_activity(self, gpu: int, what: str, now: float) -> None:
        """Any runtime activity on a failed GPU is a SAN010 violation."""
        if gpu in self._failed_gpus:
            self.report(
                "SAN010",
                f"{what} on failed GPU {gpu}",
                time=now,
                gpu=gpu,
            )

    def after_run(self, runtime: "Runtime") -> None:
        """Post-run checks: replay cross-check (SAN006), exactly-once
        completion (SAN008), degraded-capacity bound (SAN010)."""
        self._check_fixed_order(runtime)
        self._check_load_lower_bound(runtime)
        self._check_exactly_once(runtime)
        self._check_degraded_capacity(runtime)

    def _check_exactly_once(self, runtime: "Runtime") -> None:
        """SAN008: every task completed exactly once despite requeues."""
        if not self._tracking:
            return  # this instance never watched the event stream
        for t in range(runtime.graph.n_tasks):
            count = self._task_completions.get(t, 0)
            if count != 1:
                self.report(
                    "SAN008",
                    f"task {t} completed {count} times (expected exactly "
                    "once)",
                    time=runtime.engine.now,
                )

    def _check_degraded_capacity(self, runtime: "Runtime") -> None:
        """SAN010: post-failure work fits the surviving-GPU capacity.

        Every task that both started and finished after the (last)
        failure must have run on a surviving GPU, so the flops executed
        in the degraded window cannot exceed what the surviving devices
        (at their straggler-adjusted rates) can deliver in that window.
        """
        if not self._failed_gpus:
            return
        elapsed = runtime.engine.now - self._last_failure_time
        if elapsed <= 0:
            return
        rate = sum(
            runtime.platform.gpus[k].gflops * 1e9 / runtime._slowdown[k]
            for k in range(runtime.platform.n_gpus)
            if not runtime.dead[k]
        )
        budget = rate * elapsed
        if self._post_failure_flops > budget * (1 + _REL_TOL) + _TOL:
            self.report(
                "SAN010",
                f"degraded-mode window executed "
                f"{self._post_failure_flops:.3e} flops but surviving "
                f"capacity only delivers {budget:.3e} in "
                f"{elapsed!r} seconds",
                time=runtime.engine.now,
            )

    def _check_fixed_order(self, runtime: "Runtime") -> None:
        from repro.schedulers.fixed import FixedSchedule

        sched = runtime.scheduler
        if not isinstance(sched, FixedSchedule):
            return
        if any(runtime.dead):
            return  # device loss legitimately reassigns the fixed order
        for k, order in enumerate(sched.schedule.order):
            executed = runtime.executed_order[k]
            if list(order) != list(executed):
                self.report(
                    "SAN006",
                    f"fixed schedule order not respected: expected "
                    f"{list(order)}, executed {executed}",
                    time=runtime.engine.now,
                    gpu=k,
                )

    def _check_load_lower_bound(self, runtime: "Runtime") -> None:
        """Simulated loads can never beat the offline Belady replay.

        For the executed per-GPU order, the analytic replay of
        :mod:`repro.core.schedule` under Belady eviction is the minimum
        number of loads any execution of that order can incur within the
        same capacity.  Fewer simulated loads would mean the simulator
        lost a fetch.  Skipped for output-producing graphs (produced
        data are computed in place, not loaded) and for heterogeneous
        data sizes: Belady's farthest-next-use rule is only optimal —
        and therefore only a lower bound — when all data are equal-sized
        (with variable sizes, evicting one large far-use datum can cost
        fewer reloads than the small near-use data Belady keeps).
        """
        if runtime.graph.has_outputs:
            return
        if runtime.graph.uniform_data_size() is None:
            return
        from repro.core.schedule import (
            InfeasibleScheduleError,
            Schedule,
            replay_schedule,
        )

        for k, order in enumerate(runtime.executed_order):
            if not order:
                continue
            mem = runtime.memories[k]
            try:
                replay = replay_schedule(
                    runtime.graph,
                    Schedule.single_gpu(order),
                    policy="belady",
                    capacity_bytes=mem.capacity,
                )
            except InfeasibleScheduleError:
                continue  # heterogeneous corner the replay cannot model
            lower = replay.gpus[0].n_loads
            if mem.n_loads < lower:
                self.report(
                    "SAN006",
                    f"simulated {mem.n_loads} loads but the analytic "
                    f"Belady replay of the executed order needs at least "
                    f"{lower}",
                    time=runtime.engine.now,
                    gpu=k,
                )

    # ------------------------------------------------------------------
    def summary(self) -> str:
        if not self.violations:
            return "sanitizer: no violations"
        lines = [v.format() for v in self.violations]
        lines.append(f"sanitizer: {len(self.violations)} violation(s)")
        return "\n".join(lines)


def check_determinism(
    graph,
    platform,
    scheduler_name: str,
    *,
    eviction: Optional[str] = None,
    window: int = 2,
    seed: int = 0,
    sanitizer: Optional[Sanitizer] = None,
    faults: Optional["FaultPlan"] = None,
) -> str:
    """Run the same simulation twice and compare trace digests (SAN007).

    Returns the digest.  A mismatch is reported through ``sanitizer``
    (a fresh strict one by default, i.e. it raises).  ``faults`` is an
    optional :class:`repro.simulator.faults.FaultPlan` applied to both
    runs — a pinned plan must reproduce its full recovery trace.
    """
    from repro.schedulers.registry import make_scheduler
    from repro.simulator.runtime import simulate

    san = sanitizer if sanitizer is not None else Sanitizer(strict=True)
    results = []
    for _ in range(2):
        sched, default_eviction = make_scheduler(scheduler_name)
        results.append(
            simulate(
                graph,
                platform,
                sched,
                eviction=eviction or default_eviction,
                window=window,
                seed=seed,
                record_trace=True,
                sanitize=Sanitizer(strict=san.strict),
                faults=faults,
            )
        )
    a, b = results
    if a.trace_digest != b.trace_digest:
        san.report(
            "SAN007",
            f"same-seed runs of {scheduler_name!r} diverged: "
            f"digest {a.trace_digest} != {b.trace_digest} "
            f"(makespans {a.makespan!r} vs {b.makespan!r})",
            time=max(a.makespan, b.makespan),
        )
    if a.total_loads != b.total_loads:
        san.report(
            "SAN007",
            f"same-seed runs of {scheduler_name!r} diverged: "
            f"{a.total_loads} vs {b.total_loads} loads",
            time=max(a.makespan, b.makespan),
        )
    assert a.trace_digest is not None
    return a.trace_digest
