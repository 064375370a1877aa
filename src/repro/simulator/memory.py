"""Per-GPU memory manager with pluggable eviction.

Tracks each datum's state on one GPU (absent / fetching / present),
reserves space when a fetch starts, evicts unpinned present data through
the configured eviction policy when space is needed, and queues fetch
requests that cannot yet be satisfied.

Pinning protocol (set by the runtime): inputs of the *currently executing*
task are pinned; data in flight cannot be evicted either.  Inputs of tasks
merely sitting in the task buffer are **not** pinned — they can be evicted
again before their task runs, which is exactly the "domino effect" the
paper describes for DARTS under LRU, and what the LUF policy is designed
to avoid.

Evictions are free in time: the paper's model has read-only inputs, so no
write-back occurs.

Each held-set change publishes its event on the
:class:`repro.simulator.events.EventStream` passed at construction
(:class:`~repro.simulator.events.FetchIssued`,
:class:`~repro.simulator.events.OutputAllocated`,
:class:`~repro.simulator.events.FetchCompleted`,
:class:`~repro.simulator.events.Evicted`), then calls the matching
:class:`MemoryControl` reaction directly, so observers see the event
before control acts.  :class:`~repro.simulator.events.EvictionStarted`
and :class:`~repro.simulator.events.MemoryUsageChanged` are published
for observers alone.  Every publish is guarded by
:meth:`~repro.simulator.events.EventStream.wants`, so with no
subscriber the hot fetch path allocates no event object.
"""

from __future__ import annotations

import enum
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.simulator.engine import SimulationEngine
from repro.simulator.events import (
    Evicted,
    EvictionStarted,
    EventStream,
    FetchCompleted,
    FetchIssued,
    MemoryUsageChanged,
    OutputAllocated,
)
from repro.simulator.routing import Transport


class MemoryFullError(Exception):
    """Raised when a request can never be satisfied (inputs > capacity)."""


class DataState(enum.Enum):
    FETCHING = "fetching"
    PRESENT = "present"
    #: space reserved for an output being produced by a running task
    ALLOCATED = "allocated"


class EvictionPolicyProtocol:
    """What :class:`DeviceMemory` needs from an eviction policy.

    Concrete policies live in :mod:`repro.eviction`; this base only fixes
    the contract so the simulator has no import dependency on them.
    """

    name = "abstract"

    def on_insert(self, data_id: int) -> None:
        """``data_id`` became PRESENT."""

    def on_access(self, data_id: int) -> None:
        """``data_id`` is read by a task starting now."""

    def on_evict(self, data_id: int) -> None:
        """``data_id`` was evicted."""

    def on_device_lost(self, gpu: int) -> None:
        """GPU ``gpu`` (not necessarily this policy's) failed; drop any
        cached cross-device state.  Default: nothing to drop."""

    def choose_victim(self, candidates: Set[int]) -> int:
        raise NotImplementedError


class MemoryControl:
    """The runtime's reactions to one memory's held-set changes.

    :class:`DeviceMemory` calls each reaction right after publishing the
    matching event.  This base reacts to nothing, for a memory driven on
    its own; the runtime kernel overrides all three.
    """

    __slots__ = ()

    def on_fetch_issued(self, gpu: int, data_id: int) -> None:
        """``data_id`` joined ``gpu``'s held set: a fetch was issued or
        space for an output was allocated."""

    def on_fetch_completed(self, gpu: int, data_id: int) -> None:
        """``data_id`` became resident on ``gpu``."""

    def on_evicted(self, gpu: int, data_id: int) -> None:
        """``data_id`` left ``gpu``'s held set."""


_NO_CONTROL = MemoryControl()


class DeviceMemory:
    """Bounded memory of one GPU, fed through a bus or a router."""

    def __init__(
        self,
        engine: SimulationEngine,
        router: Transport,
        gpu_index: int,
        capacity_bytes: float,
        data_sizes: Sequence[float],
        policy: EvictionPolicyProtocol,
        events: Optional[EventStream] = None,
        data_available: Optional[Callable[[int], bool]] = None,
        control: MemoryControl = _NO_CONTROL,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.router = router
        self.gpu = gpu_index
        self.capacity = float(capacity_bytes)
        self.sizes = data_sizes
        self.policy = policy
        #: instrumentation stream shared with the rest of the runtime
        self.events: EventStream = events if events is not None else EventStream()
        #: reactions to held-set changes, called after each publish
        self.control = control
        #: whether a datum can currently be fetched at all (produced
        #: data are unavailable until written back or peer-resident)
        self._data_available = data_available
        self._state: Dict[int, DataState] = {}
        self._pins: Dict[int, int] = {}
        # Derived sets, maintained incrementally on every state
        # transition so the hot queries (``present_set``/``held_set``/
        # ``evictable``/``fetching_set``) never rescan ``_state``.
        # ``check_invariants`` asserts they match a from-scratch
        # recomputation.
        self._present: Set[int] = set()
        self._fetching: Set[int] = set()
        self._evictable: Set[int] = set()
        self.used: float = 0.0
        # pending fetches: (datum, data protected from eviction for it)
        self._pending: List[Tuple[int, FrozenSet[int]]] = []
        self._pending_set: Set[int] = set()
        #: data whose eviction has begun but not yet finished — peer
        #: routing must not pick these as transfer sources
        self._evicting: Set[int] = set()
        #: set by :meth:`fail` on device loss; all operations become
        #: no-ops so late transfer completions land harmlessly
        self.failed: bool = False
        # statistics
        self.n_loads: int = 0
        self.bytes_loaded: float = 0.0
        self.n_evictions: int = 0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def state(self, d: int) -> Optional[DataState]:
        return self._state.get(d)

    def is_present(self, d: int) -> bool:
        return self._state.get(d) is DataState.PRESENT

    def is_evicting(self, d: int) -> bool:
        """Whether ``d`` is mid-eviction (unsafe as a peer-copy source)."""
        return d in self._evicting

    def holds(self, d: int) -> bool:
        """Present or on its way (space already reserved)."""
        return d in self._state

    def present_set(self) -> Set[int]:
        return set(self._present)

    def fetching_set(self) -> Set[int]:
        return set(self._fetching)

    def held_set(self) -> Set[int]:
        return set(self._state)

    def is_pinned(self, d: int) -> bool:
        return self._pins.get(d, 0) > 0

    @property
    def free(self) -> float:
        return self.capacity - self.used

    def evictable(self) -> Set[int]:
        """Present, unpinned data — the candidate set for eviction."""
        return set(self._evictable)

    # ------------------------------------------------------------------
    # pinning
    # ------------------------------------------------------------------
    def pin(self, d: int) -> None:
        if self.failed:
            return
        c = self._pins.get(d, 0)
        self._pins[d] = c + 1
        if c == 0:
            self._evictable.discard(d)

    def unpin(self, d: int) -> None:
        if self.failed:
            return
        c = self._pins.get(d, 0)
        if c <= 0:
            raise ValueError(f"unpin of unpinned data {d} on GPU {self.gpu}")
        if c == 1:
            del self._pins[d]
            if d in self._present:
                self._evictable.add(d)
        else:
            self._pins[d] = c - 1
        self._drain_pending()

    # ------------------------------------------------------------------
    # fetching
    # ------------------------------------------------------------------
    def request(self, d: int, protected: Iterable[int] = ()) -> None:
        """Ask for ``d`` to become present; idempotent while in flight.

        ``protected`` data are exempt from eviction when making room for
        *this* fetch — the runtime passes the input set of the task about
        to run, enforcing the paper's ``V(k,i) ∩ D(T_σ(k,i)) = ∅`` rule
        for the head task (deeper prefetches stay unprotected, which is
        what allows the LRU "domino effect" the paper describes).
        """
        if self.failed:
            return
        if d in self._state or d in self._pending_set:
            return
        if self.sizes[d] > self.capacity:
            raise MemoryFullError(
                f"datum {d} ({self.sizes[d]:.0f}B) exceeds GPU {self.gpu} "
                f"capacity {self.capacity:.0f}B"
            )
        self._pending.append((d, frozenset(protected)))
        self._pending_set.add(d)
        self._drain_pending()

    def touch(self, d: int) -> None:
        """Record a use of present datum ``d`` (task start)."""
        self.policy.on_access(d)

    def retry_pending(self) -> None:
        """Re-attempt queued fetches (data availability changed)."""
        self._drain_pending()

    def _drain_pending(self) -> None:
        """Launch queued fetches in request order.

        Entries whose datum is not yet *available* (an output that has
        not been written back anywhere reachable) are skipped without
        blocking later entries; running out of space stops the drain
        (space is the ordered resource).
        """
        if self.failed:
            return
        i = 0
        while i < len(self._pending):
            d, protected = self._pending[i]
            if d in self._state:  # raced: someone else satisfied it
                del self._pending[i]
                self._pending_set.discard(d)
                continue
            if self._data_available is not None and not self._data_available(d):
                i += 1
                continue
            if not self._make_room(self.sizes[d], protected):
                return
            del self._pending[i]
            self._pending_set.discard(d)
            self._state[d] = DataState.FETCHING
            self._fetching.add(d)
            self.used += self.sizes[d]
            self._sanitize_usage()
            if self.events.wants(FetchIssued):
                self.events.publish(
                    FetchIssued(time=self.engine.now, gpu=self.gpu, data_id=d)
                )
            self.control.on_fetch_issued(self.gpu, d)
            self.router.submit(
                self.sizes[d],
                self.gpu,
                lambda dd=d: self._fetch_done(dd),
                data_id=d,
            )

    # ------------------------------------------------------------------
    # output data (the paper's output extension)
    # ------------------------------------------------------------------
    def allocate_output(self, d: int, protected: Iterable[int] = ()) -> bool:
        """Reserve space for output ``d`` (no transfer); pin it.

        Returns False when no space can be made right now (caller
        retries on the next poke).  Idempotent for already-allocated
        outputs.
        """
        if self.failed:
            return False
        if d in self._state:
            if self._state[d] is DataState.ALLOCATED:
                return True
            raise ValueError(f"output {d} already has state {self._state[d]}")
        if not self._make_room(self.sizes[d], frozenset(protected)):
            return False
        self._state[d] = DataState.ALLOCATED
        self.used += self.sizes[d]
        self._sanitize_usage()
        self.pin(d)
        if self.events.wants(OutputAllocated):
            self.events.publish(
                OutputAllocated(time=self.engine.now, gpu=self.gpu, data_id=d)
            )
        self.control.on_fetch_issued(self.gpu, d)
        return True

    def mark_produced(self, d: int) -> None:
        """Output ``d`` finished computing: it is now resident data."""
        if self._state.get(d) is not DataState.ALLOCATED:
            raise ValueError(f"datum {d} was not allocated as an output")
        self._state[d] = DataState.PRESENT
        self._present.add(d)
        if self._pins.get(d, 0) == 0:
            self._evictable.add(d)
        self.policy.on_insert(d)

    def _make_room(self, size: float, protected: FrozenSet[int] = frozenset()) -> bool:
        """Evict until ``size`` bytes are free; False if impossible now."""
        while self.capacity - self.used < size:
            # goes through the public ``evictable()`` seam (tests inject
            # faults there); it is a cheap set copy now, not a rescan
            candidates = self.evictable() - protected
            if not candidates:
                return False
            victim = self.policy.choose_victim(candidates)
            if victim not in candidates:
                raise RuntimeError(
                    f"policy {self.policy.name} chose non-candidate {victim}"
                )
            self.evict(victim)
        return True

    def evict(self, d: int) -> None:
        """Drop present, unpinned datum ``d`` (no write-back)."""
        self._evicting.add(d)
        try:
            if self.events.wants(EvictionStarted):
                self.events.publish(
                    EvictionStarted(
                        time=self.engine.now,
                        gpu=self.gpu,
                        data_id=d,
                        pinned=self.is_pinned(d),
                    )
                )
            if self._state.get(d) is not DataState.PRESENT:
                raise ValueError(f"cannot evict non-present datum {d}")
            if self.is_pinned(d):
                raise ValueError(f"cannot evict pinned datum {d}")
            del self._state[d]
            self._present.discard(d)
            self._evictable.discard(d)
            self.used -= self.sizes[d]
            self._sanitize_usage()
            self.n_evictions += 1
            self.policy.on_evict(d)
            if self.events.wants(Evicted):
                self.events.publish(
                    Evicted(time=self.engine.now, gpu=self.gpu, data_id=d)
                )
            self.control.on_evicted(self.gpu, d)
        finally:
            self._evicting.discard(d)

    def _fetch_done(self, d: int) -> None:
        if self.failed:
            return  # late completion of a transfer into a dead device
        assert self._state.get(d) is DataState.FETCHING
        self._state[d] = DataState.PRESENT
        self._fetching.discard(d)
        self._present.add(d)
        if self._pins.get(d, 0) == 0:
            self._evictable.add(d)
        self.n_loads += 1
        self.bytes_loaded += self.sizes[d]
        self.policy.on_insert(d)
        self._drain_pending()
        if self.events.wants(FetchCompleted):
            self.events.publish(
                FetchCompleted(
                    time=self.engine.now,
                    gpu=self.gpu,
                    data_id=d,
                    size=self.sizes[d],
                )
            )
        self.control.on_fetch_completed(self.gpu, d)

    def _sanitize_usage(self) -> None:
        if self.events.wants(MemoryUsageChanged):
            self.events.publish(
                MemoryUsageChanged(
                    time=self.engine.now,
                    gpu=self.gpu,
                    used=self.used,
                    capacity=self.capacity,
                )
            )

    # ------------------------------------------------------------------
    # fault injection
    # ------------------------------------------------------------------
    def fail(self) -> Set[int]:
        """Device loss: wipe every replica and freeze this memory.

        Returns the set of data the device held or was fetching (the
        kernel publishes a
        :class:`~repro.simulator.events.DataReplicaLost` per datum).
        All subsequent operations — including completions of transfers
        that were already in flight toward this GPU — become no-ops, so
        nothing is re-materialised on a dead device.
        """
        lost = set(self._state)
        self.failed = True
        self._state.clear()
        self._pins.clear()
        self._present.clear()
        self._fetching.clear()
        self._evictable.clear()
        self._pending.clear()
        self._pending_set.clear()
        self._evicting.clear()
        self.used = 0.0
        return lost

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Accounting invariants; used by tests after every run."""
        acc = sum(self.sizes[d] for d in self._state)
        assert acc == self.used, (
            f"GPU {self.gpu}: used={self.used} but states sum to {acc}"
        )
        assert self.used <= self.capacity
        for d in self._pins:
            assert d in self._state, f"pinned datum {d} not held"
        # the incrementally-maintained sets must equal a fresh rescan
        present = {d for d, s in self._state.items() if s is DataState.PRESENT}
        fetching = {d for d, s in self._state.items() if s is DataState.FETCHING}
        evictable = {d for d in present if self._pins.get(d, 0) == 0}
        assert self._present == present, (
            f"GPU {self.gpu}: incremental present {self._present} != {present}"
        )
        assert self._fetching == fetching, (
            f"GPU {self.gpu}: incremental fetching {self._fetching} != {fetching}"
        )
        assert self._evictable == evictable, (
            f"GPU {self.gpu}: incremental evictable {self._evictable} != {evictable}"
        )
