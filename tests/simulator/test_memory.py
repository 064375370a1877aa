"""Tests for the per-GPU memory manager."""

import pytest

from repro.platform.spec import BusSpec
from repro.simulator.bus import FifoBus
from repro.simulator.engine import SimulationEngine
from repro.simulator.events import Evicted, FetchCompleted
from repro.simulator.memory import (
    DataState,
    DeviceMemory,
    EvictionPolicyProtocol,
    MemoryFullError,
)


class ScriptedPolicy(EvictionPolicyProtocol):
    """Evicts the smallest-id candidate; records every notification."""

    name = "scripted"

    def __init__(self):
        self.inserted, self.evicted, self.accessed = [], [], []

    def on_insert(self, d):
        self.inserted.append(d)

    def on_access(self, d):
        self.accessed.append(d)

    def on_evict(self, d):
        self.evicted.append(d)

    def choose_victim(self, candidates):
        return min(candidates)


def make_memory(capacity=4.0, sizes=None, bandwidth=1.0):
    eng = SimulationEngine()
    bus = FifoBus(
        eng,
        BusSpec(bandwidth=bandwidth, latency=0.0, model="fifo"),
        events=eng.events,
    )
    ready, evicted = [], []
    policy = ScriptedPolicy()
    mem = DeviceMemory(
        engine=eng,
        router=bus,
        gpu_index=0,
        capacity_bytes=capacity,
        data_sizes=sizes or [1.0] * 10,
        policy=policy,
        events=eng.events,
    )
    eng.events.subscribe(lambda e: ready.append(e.data_id), FetchCompleted)
    eng.events.subscribe(lambda e: evicted.append(e.data_id), Evicted)
    return eng, mem, policy, ready, evicted


class TestFetching:
    def test_request_fetches_and_becomes_present(self):
        eng, mem, policy, ready, _ = make_memory()
        mem.request(3)
        assert mem.state(3) is DataState.FETCHING
        eng.run()
        assert mem.is_present(3)
        assert ready == [3]
        assert mem.n_loads == 1
        assert mem.bytes_loaded == 1.0

    def test_request_is_idempotent_while_fetching(self):
        eng, mem, *_ = make_memory()
        mem.request(3)
        mem.request(3)
        eng.run()
        assert mem.n_loads == 1

    def test_request_of_present_datum_is_noop(self):
        eng, mem, *_ = make_memory()
        mem.request(3)
        eng.run()
        mem.request(3)
        eng.run()
        assert mem.n_loads == 1

    def test_space_reserved_at_fetch_start(self):
        eng, mem, *_ = make_memory(capacity=2.0)
        mem.request(0)
        mem.request(1)
        assert mem.used == 2.0
        assert mem.free == 0.0

    def test_oversized_datum_rejected(self):
        eng, mem, *_ = make_memory(capacity=2.0, sizes=[5.0])
        with pytest.raises(MemoryFullError):
            mem.request(0)


class TestEviction:
    def test_full_memory_evicts_via_policy(self):
        eng, mem, policy, ready, evicted = make_memory(capacity=2.0)
        mem.request(0)
        mem.request(1)
        eng.run()
        mem.request(2)  # must evict datum 0 (scripted: smallest id)
        eng.run()
        assert evicted == [0]
        assert policy.evicted == [0]
        assert mem.is_present(2)
        assert not mem.holds(0)
        assert mem.n_evictions == 1

    def test_pinned_data_never_evicted(self):
        eng, mem, policy, _, evicted = make_memory(capacity=2.0)
        mem.request(0)
        mem.request(1)
        eng.run()
        mem.pin(0)
        mem.request(2)
        eng.run()
        assert evicted == [1]  # 0 was protected
        mem.unpin(0)

    def test_fetching_data_not_evictable(self):
        eng, mem, *_ = make_memory(capacity=2.0, bandwidth=0.01)
        mem.request(0)  # slow fetch in flight
        mem.request(1)
        # memory is full of FETCHING data; a third request must wait
        mem.request(2)
        assert mem.state(2) is None
        eng.run()
        assert mem.is_present(2)  # eventually satisfied after evictions

    def test_explicit_evict_validates_state(self):
        eng, mem, *_ = make_memory()
        with pytest.raises(ValueError, match="non-present"):
            mem.evict(7)
        mem.request(1)
        eng.run()
        mem.pin(1)
        with pytest.raises(ValueError, match="pinned"):
            mem.evict(1)

    def test_pending_queue_preserves_request_order(self):
        eng, mem, policy, ready, _ = make_memory(capacity=1.0, bandwidth=100.0)
        mem.request(0)
        mem.request(1)
        mem.request(2)
        eng.run()
        assert ready == [0, 1, 2]


class TestPinning:
    def test_pin_refcounts(self):
        eng, mem, *_ = make_memory()
        mem.request(0)
        eng.run()
        mem.pin(0)
        mem.pin(0)
        mem.unpin(0)
        assert mem.is_pinned(0)
        mem.unpin(0)
        assert not mem.is_pinned(0)

    def test_unpin_without_pin_raises(self):
        eng, mem, *_ = make_memory()
        with pytest.raises(ValueError, match="unpin"):
            mem.unpin(0)

    def test_unpin_unblocks_pending_fetch(self):
        eng, mem, *_ = make_memory(capacity=1.0)
        mem.request(0)
        eng.run()
        mem.pin(0)
        mem.request(1)  # blocked: the only resident datum is pinned
        eng.run()
        assert not mem.holds(1)
        mem.unpin(0)  # now 0 is evictable; fetch of 1 launches
        eng.run()
        assert mem.is_present(1)


class TestQueriesAndInvariants:
    def test_sets(self):
        eng, mem, *_ = make_memory(bandwidth=0.5)
        mem.request(0)
        eng.run()
        mem.request(1)
        assert mem.present_set() == {0}
        assert mem.fetching_set() == {1}
        assert mem.held_set() == {0, 1}
        eng.run()

    def test_touch_notifies_policy(self):
        eng, mem, policy, *_ = make_memory()
        mem.request(0)
        eng.run()
        mem.touch(0)
        assert policy.accessed == [0]

    def test_invariants_hold_after_activity(self):
        eng, mem, *_ = make_memory(capacity=3.0)
        for d in range(6):
            mem.request(d)
        eng.run()
        mem.check_invariants()

    def test_rogue_policy_detected(self):
        class Rogue(EvictionPolicyProtocol):
            name = "rogue"

            def choose_victim(self, candidates):
                return 99

        eng = SimulationEngine()
        bus = FifoBus(eng, BusSpec(bandwidth=1.0, latency=0.0, model="fifo"))
        mem = DeviceMemory(
            engine=eng,
            router=bus,
            gpu_index=0,
            capacity_bytes=1.0,
            data_sizes=[1.0] * 4,
            policy=Rogue(),
        )
        mem.request(0)
        eng.run()
        with pytest.raises(RuntimeError, match="non-candidate"):
            mem.request(1)
