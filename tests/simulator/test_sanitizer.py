"""The trace sanitizer: clean runs are silent, injected bugs are caught."""

import pytest

from repro.core.problem import TaskGraph
from repro.schedulers.eager import Eager
from repro.schedulers.registry import make_scheduler
from repro.simulator import sanitizer as sanmod
from repro.simulator.memory import DeviceMemory
from repro.simulator.runtime import Runtime, simulate
from repro.simulator.sanitizer import (
    Sanitizer,
    SanitizerError,
    check_determinism,
    sanitized,
)
from repro.workloads.randomgraph import random_bipartite

from tests.conftest import toy_platform


def small_graph() -> TaskGraph:
    return random_bipartite(n_tasks=12, n_data=6, arity=2, seed=3)


class TestCleanRuns:
    def test_clean_run_has_zero_violations(self):
        san = Sanitizer(strict=False)
        simulate(
            small_graph(),
            toy_platform(n_gpus=2, memory=3.0),
            Eager(),
            sanitize=san,
        )
        assert san.violations == []
        assert san.summary() == "sanitizer: no violations"

    @pytest.mark.parametrize(
        "name", ["eager", "dmdar", "mhfp", "hmetis+r", "darts+luf"]
    )
    def test_all_schedulers_sanitize_cleanly(self, name):
        san = Sanitizer(strict=False)
        sched, eviction = make_scheduler(name)
        simulate(
            small_graph(),
            toy_platform(n_gpus=2, memory=3.0, model="fair"),
            sched,
            eviction=eviction,
            sanitize=san,
        )
        assert san.violations == []

    def test_global_enable_attaches_sanitizer(self):
        from repro.simulator.events import (
            EngineStep,
            EvictionStarted,
            MemoryUsageChanged,
            TaskStarted,
            TransferCompleted,
        )

        with sanitized():
            rt = Runtime(small_graph(), toy_platform(memory=6.0), Eager())
        assert rt.sanitizer is not None
        # The sanitizer's checks ride the shared event stream, which the
        # engine, buses and memories all publish on.
        for et in (
            EngineStep,
            MemoryUsageChanged,
            EvictionStarted,
            TransferCompleted,
            TaskStarted,
        ):
            assert rt.events.wants(et)
        assert rt.engine.events is rt.events
        assert rt.memories[0].events is rt.events
        assert rt.bus.events is rt.events

    def test_explicit_false_overrides_global_enable(self):
        with sanitized():
            rt = Runtime(
                small_graph(), toy_platform(memory=6.0), Eager(), sanitize=False
            )
        assert rt.sanitizer is None

    def test_disabled_by_default_outside_suite_switch(self):
        assert sanmod.is_enabled()  # autouse fixture holds the switch


class TestInjectedMemoryOverrun:
    def test_memory_cap_overrun_detected(self, monkeypatch):
        """Disable eviction-for-space: fetches then overrun the cap."""
        monkeypatch.setattr(
            DeviceMemory, "_make_room", lambda self, size, protected=frozenset(): True
        )
        with pytest.raises(SanitizerError, match="SAN001"):
            simulate(
                small_graph(),
                toy_platform(n_gpus=1, memory=3.0),
                Eager(),
                sanitize=True,
            )

    def test_overrun_collected_when_not_strict(self, monkeypatch):
        monkeypatch.setattr(
            DeviceMemory, "_make_room", lambda self, size, protected=frozenset(): True
        )
        san = Sanitizer(strict=False)
        # The run still dies on the memory manager's own final
        # accounting assert; the sanitizer collected the overrun first.
        with pytest.raises(AssertionError):
            simulate(
                small_graph(),
                toy_platform(n_gpus=1, memory=3.0),
                Eager(),
                sanitize=san,
            )
        assert any(v.code == "SAN001" for v in san.violations)
        assert "SAN001" in san.summary()


class TestInjectedPinnedEviction:
    def test_pinned_eviction_detected(self):
        """The sanitizer fires before the memory manager's own guard."""
        rt = Runtime(
            small_graph(), toy_platform(n_gpus=1, memory=4.0), Eager(),
            sanitize=True,
        )
        mem = rt.memories[0]
        mem.request(0)
        rt.engine.run()  # complete the fetch
        assert mem.is_present(0)
        mem.pin(0)
        with pytest.raises(SanitizerError, match="SAN003"):
            mem.evict(0)

    def test_leaky_candidate_set_detected_in_full_run(self, monkeypatch):
        """Mid-simulation injection: pins that are never released pile up
        until LRU, fed a candidate set leaking pinned entries, evicts a
        pinned datum — the sanitizer stops the run with SAN003."""
        real = DeviceMemory.evictable

        def leaky(self):
            out = real(self)
            out |= {
                d
                for d in self._state
                if self.is_present(d) and self.is_pinned(d)
            }
            return out

        monkeypatch.setattr(DeviceMemory, "evictable", leaky)
        monkeypatch.setattr(DeviceMemory, "unpin", lambda self, d: None)
        with pytest.raises(SanitizerError, match="SAN003"):
            simulate(
                small_graph(),
                toy_platform(n_gpus=1, memory=3.0),
                Eager(),
                eviction="lru",
                sanitize=True,
            )


class TestEventMonotonicity:
    def test_backwards_event_reported(self):
        san = Sanitizer(strict=False)
        san.on_event(5.0, 5.0)
        san.on_event(4.0, 5.0)
        assert [v.code for v in san.violations] == ["SAN005"]

    def test_strict_raises(self):
        san = Sanitizer(strict=True)
        san.on_event(5.0, 5.0)
        with pytest.raises(SanitizerError, match="SAN005"):
            san.on_event(1.0, 5.0)


class TestBusConservation:
    def test_clean_fair_bus_run_passes(self):
        san = Sanitizer(strict=False)
        simulate(
            small_graph(),
            toy_platform(n_gpus=2, memory=3.0, model="fair"),
            Eager(),
            sanitize=san,
        )
        assert not [v for v in san.violations if v.code == "SAN004"]

    def test_overdelivering_bus_detected(self):
        """A bus that reports transfers faster than its bandwidth."""

        class FakeSpec:
            bandwidth = 1.0
            latency = 0.0

        class FakeBus:
            spec = FakeSpec()
            bytes_transferred = 100.0  # delivered at t=1 on a 1 B/s link
            n_transfers = 1

        san = Sanitizer(strict=False)
        san.on_transfer(FakeBus(), now=1.0)
        assert [v.code for v in san.violations] == ["SAN004"]


class TestReplayCrossCheck:
    def test_fixed_schedule_order_respected(self):
        from repro.core.schedule import Schedule
        from repro.schedulers.fixed import FixedSchedule

        g = small_graph()
        sched = Schedule(order=[list(range(6)), list(range(6, 12))])
        san = Sanitizer(strict=False)
        simulate(
            g,
            toy_platform(n_gpus=2, memory=4.0),
            FixedSchedule(sched),
            sanitize=san,
        )
        assert san.violations == []

    def test_lost_load_detected(self):
        """Undercounting loads trips the Belady lower bound (SAN006)."""
        g = small_graph()
        rt = Runtime(
            g, toy_platform(n_gpus=1, memory=3.0), Eager(), sanitize=True
        )
        rt.run()
        san = Sanitizer(strict=False)
        rt.memories[0].n_loads = 0  # inject the undercount
        san.after_run(rt)
        assert any(v.code == "SAN006" for v in san.violations)


class TestDeterminismDigest:
    def test_same_seed_same_digest(self):
        digest = check_determinism(
            small_graph(), toy_platform(n_gpus=2, memory=3.0), "eager", seed=7
        )
        assert len(digest) == 64

    def test_digest_differs_across_traces(self):
        g = small_graph()
        plat = toy_platform(n_gpus=2, memory=3.0)
        a = simulate(g, plat, Eager(), record_trace=True)
        sched, ev = make_scheduler("darts+luf")
        b = simulate(g, plat, sched, eviction=ev, record_trace=True)
        assert a.trace_digest is not None and b.trace_digest is not None
        assert a.trace_digest != b.trace_digest

    def test_digest_absent_without_trace(self):
        r = simulate(small_graph(), toy_platform(memory=6.0), Eager())
        assert r.trace_digest is None
