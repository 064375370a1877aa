"""Typed runtime events and the unified instrumentation stream.

Every observable thing the runtime kernel does — a task starting, a
fetch being issued, a datum evicted, a scheduling decision charged —
is published as one immutable :class:`RuntimeEvent` on a single
:class:`EventStream`.  Only observers subscribe: trace recording, the
invariant sanitizer and any future profiler.  Control flow does not
ride the stream: the memory manager calls the kernel's reactions
(scheduler notification, pokes) directly, right after publishing, and
workers update their statistics inline, so a run with no observer
allocates no event.

Dispatch rules (the contract tests in ``tests/simulator/test_events.py``
pin these down):

* dispatch is by **exact** event type — no subclass fan-out — so a
  ``publish`` is one dict lookup plus a list walk;
* subscribers for a type run in **registration order**, which is fixed
  by the kernel's wiring sequence and therefore deterministic;
* a subscriber raising **propagates** to the publisher — instrumentation
  errors (e.g. a strict sanitizer) must abort the simulation at the
  offending event, never be swallowed;
* publishers guard hot paths with :meth:`EventStream.wants` so that an
  event nobody subscribed to costs one dict lookup — no event object is
  allocated, no handler is called.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple, Type


class RuntimeEvent:
    """Base class of all runtime events (never published itself)."""

    __slots__ = ()


@dataclass(frozen=True)
class TaskStarted(RuntimeEvent):
    """A task began executing; its inputs are resident and pinned."""

    time: float
    gpu: int
    task: int
    inputs: Tuple[int, ...]


@dataclass(frozen=True)
class TaskCompleted(RuntimeEvent):
    """A task finished executing after ``duration`` virtual seconds."""

    time: float
    gpu: int
    task: int
    duration: float
    flops: float


@dataclass(frozen=True)
class FetchIssued(RuntimeEvent):
    """A fetch of ``data_id`` into ``gpu`` was submitted to a transport."""

    time: float
    gpu: int
    data_id: int


@dataclass(frozen=True)
class OutputAllocated(RuntimeEvent):
    """Space for output ``data_id`` was reserved and pinned on ``gpu``
    (no transfer); from now on ``gpu`` holds the datum."""

    time: float
    gpu: int
    data_id: int


@dataclass(frozen=True)
class FetchCompleted(RuntimeEvent):
    """``data_id`` became resident on ``gpu`` (``size`` payload bytes)."""

    time: float
    gpu: int
    data_id: int
    size: float


@dataclass(frozen=True)
class EvictionStarted(RuntimeEvent):
    """``data_id`` was chosen for eviction; published *before* the state
    change so invariant checkers can veto (``pinned`` is the pin state at
    selection time)."""

    time: float
    gpu: int
    data_id: int
    pinned: bool


@dataclass(frozen=True)
class Evicted(RuntimeEvent):
    """``data_id`` was dropped from ``gpu``'s memory."""

    time: float
    gpu: int
    data_id: int


@dataclass(frozen=True)
class WriteBackStarted(RuntimeEvent):
    """An output's eager write-back to the host was submitted."""

    time: float
    gpu: int
    data_id: int
    size: float


@dataclass(frozen=True)
class WriteBackCompleted(RuntimeEvent):
    """An output's write-back landed; the host copy now exists."""

    time: float
    gpu: int
    data_id: int


@dataclass(frozen=True)
class DecisionMade(RuntimeEvent):
    """The scheduler answered a ``next_task`` poll for ``gpu``.

    ``task`` is ``None`` when the scheduler had nothing to give;
    ``cost`` is the modelled virtual latency charged for the decision
    (``ops × decision_op_cost`` seconds, 0 when uncharged).
    """

    time: float
    gpu: int
    task: object  # Optional[int]; kept loose for cheap construction
    cost: float


@dataclass(frozen=True)
class MemoryUsageChanged(RuntimeEvent):
    """A device memory's ``used`` accounting changed."""

    time: float
    gpu: int
    used: float
    capacity: float


@dataclass(frozen=True)
class TransferCompleted(RuntimeEvent):
    """A bus finished and accounted one transfer (``bus`` is the model)."""

    time: float
    bus: object


@dataclass(frozen=True)
class EngineStep(RuntimeEvent):
    """The discrete-event core is about to fire the event at ``time``;
    ``now`` is the clock *before* it advances."""

    time: float
    now: float


@dataclass(frozen=True)
class PeerTransferStarted(RuntimeEvent):
    """A peer-link copy of ``data_id`` from ``src`` to ``dst`` began."""

    time: float
    src: int
    dst: int
    data_id: int


@dataclass(frozen=True)
class DeviceFailed(RuntimeEvent):
    """GPU ``gpu`` dropped off the node permanently (fault injection)."""

    time: float
    gpu: int


@dataclass(frozen=True)
class DataReplicaLost(RuntimeEvent):
    """``gpu`` held (or was fetching) ``data_id`` when it failed; the
    replica is gone and must be re-fetched elsewhere from the host or a
    surviving peer."""

    time: float
    gpu: int
    data_id: int


@dataclass(frozen=True)
class TaskRequeued(RuntimeEvent):
    """``task`` was running or buffered on failed GPU ``gpu`` and was
    returned to the scheduler via ``on_device_lost``."""

    time: float
    gpu: int
    task: int


@dataclass(frozen=True)
class TransferFailed(RuntimeEvent):
    """Attempt ``attempt`` of a transfer of ``data_id`` into ``gpu``
    was corrupted (or its peer source died mid-copy)."""

    time: float
    gpu: int
    data_id: int
    attempt: int


@dataclass(frozen=True)
class TransferRetried(RuntimeEvent):
    """A failed transfer of ``data_id`` into ``gpu`` was resubmitted
    (``attempt`` is the new attempt number)."""

    time: float
    gpu: int
    data_id: int
    attempt: int


@dataclass(frozen=True)
class DegradedMode(RuntimeEvent):
    """A device failure left only ``alive`` GPUs; the run continues on
    the surviving capacity."""

    time: float
    alive: Tuple[int, ...]


#: the full taxonomy, in lifecycle order (used by subscribe-all helpers
#: and the DESIGN.md event table)
RUNTIME_EVENT_TYPES: Tuple[Type[RuntimeEvent], ...] = (
    DecisionMade,
    FetchIssued,
    OutputAllocated,
    FetchCompleted,
    TaskStarted,
    TaskCompleted,
    WriteBackStarted,
    WriteBackCompleted,
    EvictionStarted,
    Evicted,
    MemoryUsageChanged,
    TransferCompleted,
    EngineStep,
    PeerTransferStarted,
    DeviceFailed,
    DataReplicaLost,
    TaskRequeued,
    TransferFailed,
    TransferRetried,
    DegradedMode,
)

_NO_SUBSCRIBERS: Tuple[Callable[[RuntimeEvent], None], ...] = ()


class EventStream:
    """Publish/subscribe hub for :class:`RuntimeEvent` instances."""

    __slots__ = ("_subscribers",)

    def __init__(self) -> None:
        self._subscribers: Dict[
            Type[RuntimeEvent], List[Callable[[RuntimeEvent], None]]
        ] = {}

    def subscribe(
        self,
        handler: Callable[[RuntimeEvent], None],
        *event_types: Type[RuntimeEvent],
    ) -> None:
        """Register ``handler`` for each given event type.

        With no types given, the handler receives *every* event in
        :data:`RUNTIME_EVENT_TYPES`.  Handlers for one type run in
        registration order; the same handler may be registered for many
        types.
        """
        for et in event_types or RUNTIME_EVENT_TYPES:
            self._subscribers.setdefault(et, []).append(handler)

    def wants(self, event_type: Type[RuntimeEvent]) -> bool:
        """True when at least one subscriber registered for the type.

        Publishers on hot paths guard with this so a disabled consumer
        (tracing off, sanitizer off) costs one dict lookup: no event
        allocation, no call.
        """
        return event_type in self._subscribers

    def publish(self, event: RuntimeEvent) -> None:
        """Deliver ``event`` to its type's subscribers, in order.

        Subscriber exceptions propagate to the caller deliberately: a
        strict sanitizer must be able to abort the simulation at the
        offending event.  The offending event's repr and the subscriber's
        name are attached to the exception so the failure is attributable
        without re-running under a debugger.
        """
        for handler in self._subscribers.get(type(event), _NO_SUBSCRIBERS):
            try:
                handler(event)
            except Exception as exc:
                _annotate_dispatch_error(exc, handler, event)
                raise


def _annotate_dispatch_error(
    exc: BaseException,
    handler: Callable[[RuntimeEvent], None],
    event: RuntimeEvent,
) -> None:
    """Attach the event repr + subscriber name to a propagating error.

    Uses ``add_note`` (3.11+) when available, otherwise appends to the
    exception's message args — either way the original exception object,
    type, and traceback are preserved for the re-raise.
    """
    name = getattr(handler, "__qualname__", None) or repr(handler)
    note = f"while dispatching {event!r} to subscriber {name}"
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:
        try:
            add_note(note)
            return
        except Exception:  # pragma: no cover - exotic exception classes
            pass
    if exc.args and isinstance(exc.args[0], str):
        exc.args = (f"{exc.args[0]}\n  {note}",) + exc.args[1:]
    else:
        exc.args = exc.args + (note,)
