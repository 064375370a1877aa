"""Contract tests for the typed runtime event stream.

Pins down the dispatch rules documented in
:mod:`repro.simulator.events` (exact-type dispatch, registration-order
delivery, propagating subscriber errors, zero-cost disabled paths) and
re-checks three sanitizer invariants (SAN001 / SAN004 / SAN007) through
their event-subscriber form, ported from ``test_sanitizer.py``.
"""

import pytest

from repro.core.problem import TaskGraph
from repro.dag.deps import DependencySet
from repro.schedulers.eager import Eager
from repro.simulator.events import (
    RUNTIME_EVENT_TYPES,
    EventStream,
    Evicted,
    FetchCompleted,
    FetchIssued,
    MemoryUsageChanged,
    OutputAllocated,
    TaskCompleted,
    TaskStarted,
    TransferCompleted,
    WriteBackStarted,
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

    def test_wants_after_subscribe(self):
        stream = EventStream()
        assert not stream.wants(FetchIssued)
        stream.subscribe(lambda e: None, FetchIssued)
        assert stream.wants(FetchIssued)

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


def output_chains():
    """Two producer chains of three layers reading one shared input:
    every task allocates an output that the next layer reads, so a run
    fetches, allocates, evicts and writes back."""
    graph = TaskGraph()
    shared = graph.add_data(1.0)
    inputs = [graph.add_data(1.0) for _ in range(2)]
    prev, edges = [None, None], []
    for _layer in range(3):
        outputs = [graph.add_data(1.0) for _ in range(2)]
        for w in range(2):
            t = graph.add_task([inputs[w], shared], flops=1.0, outputs=[outputs[w]])
            if prev[w] is not None:
                edges.append((prev[w], t.id))
            prev[w] = t.id
        inputs = outputs
    return graph, DependencySet(graph.n_tasks, edges)


class _HookLog(Eager):
    """EAGER recording its held-set hooks in a log shared with an
    external subscriber, so their interleaving can be checked."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def on_fetch_issued(self, gpu, data_id):
        self.log.append(("hook", "held", gpu, data_id))

    def on_data_loaded(self, gpu, data_id):
        self.log.append(("hook", "loaded", gpu, data_id))

    def on_data_evicted(self, gpu, data_id):
        self.log.append(("hook", "evicted", gpu, data_id))


#: event type -> the scheduler hook its control reaction calls
_HOOK_OF = {
    FetchIssued: "held",
    OutputAllocated: "held",
    FetchCompleted: "loaded",
    Evicted: "evicted",
}


class TestRuntimeWiring:
    def test_plain_run_has_no_subscriber_and_builds_no_event(self, monkeypatch):
        """With tracing and the sanitizer off nothing subscribes, and a
        run that fetches, allocates outputs, evicts and writes back
        constructs no event at all: control calls are direct."""
        graph, deps = output_chains()

        def run():
            rt = Runtime(
                graph, toy_platform(n_gpus=2, memory=3.0), Eager(),
                dependencies=deps, record_trace=False, sanitize=False,
            )
            assert not any(rt.events.wants(et) for et in RUNTIME_EVENT_TYPES)
            return rt.run()

        expected = run()
        assert expected.total_evictions > 0 and expected.total_stores == 6

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} constructed")

        for et in RUNTIME_EVENT_TYPES:
            monkeypatch.setattr(et, "__init__", refuse)
        result = run()
        assert result.executed_order == expected.executed_order
        assert result.makespan == expected.makespan
        assert [vars(g) for g in result.gpus] == [vars(g) for g in expected.gpus]

    @pytest.mark.parametrize("observed", [False, True])
    def test_output_allocation_reaches_on_fetch_issued_once(self, observed):
        """Each output's allocation calls ``on_fetch_issued`` exactly
        once, on its producer's GPU and before any fetch of it, with or
        without trace and sanitizer."""
        graph, deps = output_chains()
        log = []
        result = simulate(
            graph, toy_platform(n_gpus=2, memory=3.0), _HookLog(log),
            dependencies=deps, record_trace=observed, sanitize=observed,
        )
        held = [(gpu, d) for _, hook, gpu, d in log if hook == "held"]
        assert len(held) == result.total_loads + graph.n_tasks
        ran_on = {
            t: gpu for gpu, order in enumerate(result.executed_order) for t in order
        }
        for d in range(graph.n_data):
            if graph.is_produced(d):
                first = next(gpu for gpu, x in held if x == d)
                assert first == ran_on[graph.producer_of(d)]

    def test_observers_see_the_full_run_before_control(self):
        """Trace, sanitizer and an external subscriber all see the whole
        run, and each held-set event reaches the subscriber just before
        the scheduler hook it triggers."""
        graph, deps = output_chains()
        log = []
        sanitizer = Sanitizer(strict=False)
        rt = Runtime(
            graph, toy_platform(n_gpus=2, memory=3.0), _HookLog(log),
            dependencies=deps, record_trace=True, sanitize=sanitizer,
        )
        # trace and sanitizer ignore output allocation, so digests do too
        assert not rt.events.wants(OutputAllocated)
        seen = []
        rt.events.subscribe(seen.append)
        rt.events.subscribe(
            lambda e: log.append(("event", _HOOK_OF[type(e)], e.gpu, e.data_id)),
            *_HOOK_OF,
        )
        result = rt.run()
        assert sanitizer.violations == []
        kinds = [type(e) for e in seen]
        assert kinds.count(TaskCompleted) == graph.n_tasks
        assert kinds.count(FetchIssued) == kinds.count(FetchCompleted)
        assert kinds.count(FetchCompleted) == result.total_loads
        assert kinds.count(Evicted) == result.total_evictions > 0
        assert kinds.count(OutputAllocated) == graph.n_tasks
        assert kinds.count(WriteBackStarted) == result.total_stores
        assert len(rt.trace.of_kind("task_end")) == graph.n_tasks
        assert len(rt.trace.of_kind("evict")) == result.total_evictions
        # the log alternates: each event reaches the subscriber, then
        # the scheduler hook it triggers
        assert {e[0] for e in log[0::2]} == {"event"}
        assert [e[1:] for e in log[0::2]] == [e[1:] for e in log[1::2]]
        assert len(log) == 2 * sum(kinds.count(et) for et in _HOOK_OF)

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
