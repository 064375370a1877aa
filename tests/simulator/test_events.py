"""Contract tests for the typed runtime event stream.

Pins down the dispatch rules documented in
:mod:`repro.simulator.events` (exact-type dispatch, registration-order
delivery, propagating subscriber errors, zero-cost disabled paths) and
re-checks three sanitizer invariants (SAN001 / SAN004 / SAN007) through
their event-subscriber form, ported from ``test_sanitizer.py``.
"""

import pytest

from repro.core.problem import TaskGraph
from repro.schedulers.eager import Eager
from repro.simulator.events import (
    RUNTIME_EVENT_TYPES,
    EventStream,
    Evicted,
    FetchCompleted,
    FetchIssued,
    MemoryUsageChanged,
    OutputAllocated,
    TaskStarted,
    TransferCompleted,
)
from repro.simulator.memory import DeviceMemory
from repro.simulator.runtime import Runtime, simulate
from repro.simulator.sanitizer import Sanitizer, SanitizerError, check_determinism
from repro.workloads.randomgraph import random_bipartite

from tests.conftest import toy_platform


def small_graph() -> TaskGraph:
    return random_bipartite(n_tasks=12, n_data=6, arity=2, seed=3)


def fetch(d: int, t: float = 0.0, gpu: int = 0) -> FetchIssued:
    return FetchIssued(time=t, gpu=gpu, data_id=d)


class TestDispatch:
    def test_exact_type_dispatch(self):
        stream = EventStream()
        got = []
        stream.subscribe(got.append, FetchIssued)
        stream.publish(fetch(1))
        stream.publish(Evicted(time=0.0, gpu=0, data_id=1))  # other type
        assert got == [fetch(1)]

    def test_subscribers_run_in_registration_order(self):
        stream = EventStream()
        calls = []
        for tag in ("sanitizer", "trace", "stats", "control"):
            stream.subscribe(
                lambda e, tag=tag: calls.append(tag), FetchIssued
            )
        stream.publish(fetch(0))
        assert calls == ["sanitizer", "trace", "stats", "control"]

    def test_same_handler_multiple_types(self):
        stream = EventStream()
        got = []
        stream.subscribe(got.append, FetchIssued, Evicted)
        stream.publish(fetch(1))
        stream.publish(Evicted(time=1.0, gpu=0, data_id=1))
        assert [type(e) for e in got] == [FetchIssued, Evicted]

    def test_subscribe_all_receives_every_type(self):
        stream = EventStream()
        got = []
        stream.subscribe(got.append)
        assert all(stream.wants(et) for et in RUNTIME_EVENT_TYPES)

    def test_wants_and_unsubscribe(self):
        stream = EventStream()
        assert not stream.wants(FetchIssued)
        handler = lambda e: None
        stream.subscribe(handler, FetchIssued)
        assert stream.wants(FetchIssued)
        assert stream.subscriber_count(FetchIssued) == 1
        stream.unsubscribe(handler, FetchIssued)
        assert not stream.wants(FetchIssued)

    def test_subscriber_exception_propagates(self):
        """Instrumentation errors must abort at the offending event,
        never be swallowed."""
        stream = EventStream()
        seen = []
        stream.subscribe(seen.append, FetchIssued)

        def boom(e):
            raise RuntimeError("instrumentation failure")

        stream.subscribe(boom, FetchIssued)
        after = []
        stream.subscribe(after.append, FetchIssued)
        with pytest.raises(RuntimeError, match="instrumentation failure"):
            stream.publish(fetch(2))
        assert seen == [fetch(2)]  # earlier subscriber already ran
        assert after == []  # later subscriber never reached

    def test_events_are_immutable(self):
        e = fetch(3)
        with pytest.raises(AttributeError):
            e.data_id = 4


class TestRuntimeWiring:
    def test_control_plane_subscribes_fetch_and_evict_events(self):
        """Scheduler notification (held-set sync + pokes) rides the
        stream for fetch issues, fetch completions and evictions even
        with tracing and the sanitizer off."""
        rt = Runtime(
            small_graph(), toy_platform(memory=6.0), Eager(),
            record_trace=False, sanitize=False,
        )
        assert rt.events.wants(FetchIssued)
        assert rt.events.wants(FetchCompleted)
        assert rt.events.wants(Evicted)

    def test_output_allocation_reaches_the_scheduler_only(self):
        """Output allocation joins the held set through the scheduler's
        ``on_fetch_issued``; trace and sanitizer stay off it, so the
        recorded digests do not change."""
        graph = TaskGraph()
        out = graph.add_data(1.0)
        graph.add_task([graph.add_data(1.0)], flops=1.0, outputs=[out])
        rt = Runtime(
            graph, toy_platform(memory=6.0), Eager(),
            record_trace=True, sanitize=True,
        )
        assert rt.events.wants(OutputAllocated)
        assert rt.events.subscriber_count(OutputAllocated) == 1

    def test_tracing_subscribes_the_fetch_path(self):
        rt = Runtime(
            small_graph(), toy_platform(memory=6.0), Eager(),
            record_trace=True, sanitize=False,
        )
        assert rt.events.wants(FetchIssued)

    def test_external_subscriber_sees_a_full_run(self):
        rt = Runtime(
            small_graph(), toy_platform(n_gpus=2, memory=3.0), Eager(),
            sanitize=False,
        )
        starts, fetches = [], []
        rt.events.subscribe(lambda e: starts.append(e.task), TaskStarted)
        rt.events.subscribe(lambda e: fetches.append(e.data_id), FetchCompleted)
        result = rt.run()
        assert sorted(starts) == list(range(12))
        assert len(fetches) == result.total_loads
        assert all(0 <= d < 6 for d in fetches)


class TestSanitizerAsSubscriber:
    """The SAN001/SAN004/SAN007 checks, exercised through the stream."""

    def test_san001_memory_overrun_via_stream(self, monkeypatch):
        """Ported from test_sanitizer TestInjectedMemoryOverrun: with
        eviction-for-space disabled, the overrun reaches the sanitizer
        through its MemoryUsageChanged subscription."""
        monkeypatch.setattr(
            DeviceMemory,
            "_make_room",
            lambda self, size, protected=frozenset(): True,
        )
        with pytest.raises(SanitizerError, match="SAN001"):
            simulate(
                small_graph(),
                toy_platform(n_gpus=1, memory=3.0),
                Eager(),
                sanitize=True,
            )

    def test_san001_fires_on_published_event(self):
        stream = EventStream()
        san = Sanitizer()
        san.subscribe_to(stream, memories=[])
        with pytest.raises(SanitizerError, match="SAN001"):
            stream.publish(
                MemoryUsageChanged(time=1.0, gpu=0, used=4.0, capacity=3.0)
            )

    def test_san004_overdelivering_bus_via_stream(self):
        """Ported from test_sanitizer TestBusConservation: the fake bus
        reports transfers faster than its bandwidth; the violation is
        delivered through the TransferCompleted subscription."""

        class FakeSpec:
            bandwidth = 1.0
            latency = 0.0

        class FakeBus:
            spec = FakeSpec()
            bytes_transferred = 100.0  # delivered at t=1 on a 1 B/s link
            n_transfers = 1

        stream = EventStream()
        san = Sanitizer(strict=False)
        san.subscribe_to(stream, memories=[])
        stream.publish(TransferCompleted(time=1.0, bus=FakeBus()))
        assert [v.code for v in san.violations] == ["SAN004"]

    def test_san007_same_seed_same_digest_via_subscribed_trace(self):
        """Ported from test_sanitizer TestDeterminismDigest: the digest
        is now produced by the TraceRecorder's event subscriptions, and
        double runs must still agree bit-for-bit."""
        digest = check_determinism(
            small_graph(), toy_platform(n_gpus=2, memory=3.0), "eager", seed=7
        )
        assert len(digest) == 64
        a = simulate(
            small_graph(), toy_platform(n_gpus=2, memory=3.0), Eager(),
            record_trace=True, seed=7,
        )
        b = simulate(
            small_graph(), toy_platform(n_gpus=2, memory=3.0), Eager(),
            record_trace=True, seed=7,
        )
        assert a.trace_digest == b.trace_digest
