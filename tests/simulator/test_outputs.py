"""Tests for the output-data extension (paper: "our model could easily
be extended to integrate task output")."""

import pytest

from repro.core.problem import TaskGraph
from repro.dag.deps import DependencySet
from repro.schedulers.registry import make_scheduler
from repro.simulator.runtime import simulate

from tests.conftest import toy_platform


def producer_consumer(chain_len=3, size=1.0):
    """T_i reads D_i and produces D_{i+1}."""
    g = TaskGraph()
    data = [g.add_data(size, name=f"D{i}") for i in range(chain_len + 1)]
    for i in range(chain_len):
        g.add_task([data[i]], flops=1.0, outputs=[data[i + 1]], name=f"T{i}")
    deps = DependencySet(chain_len, [(i, i + 1) for i in range(chain_len - 1)])
    return g, deps


class TestGraphModel:
    def test_outputs_recorded(self):
        g, _ = producer_consumer(2)
        assert g.outputs_of(0) == (1,)
        assert g.producer_of(1) == 0
        assert g.producer_of(0) is None
        assert g.is_produced(1) and not g.is_produced(0)
        assert g.has_outputs
        g.validate()

    def test_double_producer_rejected(self):
        g = TaskGraph()
        a, b = g.add_data(1.0), g.add_data(1.0)
        g.add_task([a], flops=1.0, outputs=[b])
        with pytest.raises(ValueError, match="already produced"):
            g.add_task([a], flops=1.0, outputs=[b])

    def test_input_output_overlap_rejected(self):
        g = TaskGraph()
        a = g.add_data(1.0)
        with pytest.raises(ValueError, match="input and output"):
            g.add_task([a], flops=1.0, outputs=[a])


class TestRuntimeSemantics:
    def test_chain_executes_with_stores(self):
        g, deps = producer_consumer(3)
        sched, _ = make_scheduler("eager")
        result = simulate(
            g, toy_platform(memory=4.0), sched, dependencies=deps
        )
        assert sum(s.n_tasks for s in result.gpus) == 3
        assert result.total_stores == 3
        assert result.total_stored_bytes == 3.0

    def test_consumer_without_dependency_rejected(self):
        g, _ = producer_consumer(2)
        sched, _ = make_scheduler("eager")
        with pytest.raises(ValueError, match="depend on its producer"):
            simulate(g, toy_platform(memory=4.0), sched)

    def test_cross_gpu_consumer_waits_for_writeback(self):
        """Producer on GPU0, consumer forced to GPU1: the consumer's
        fetch can only start once the write-back completed."""
        from repro.core.schedule import Schedule
        from repro.schedulers.fixed import FixedSchedule

        g, deps = producer_consumer(2)
        sched = FixedSchedule(Schedule(order=[[0], [1]]))
        result = simulate(
            g,
            toy_platform(n_gpus=2, memory=4.0),
            sched,
            dependencies=deps,
            record_trace=True,
        )
        assert result.executed_order == [[0], [1]]
        store_end = [
            e.time for e in result.trace.events if e.kind == "store_end"
            and e.ref == 1
        ][0]
        fetch_start = [
            e.time
            for e in result.trace.events
            if e.kind == "fetch_start" and e.gpu == 1 and e.ref == 1
        ][0]
        assert fetch_start >= store_end - 1e-9

    def test_writeback_extends_makespan(self):
        g = TaskGraph()
        a, out = g.add_data(1.0), g.add_data(5.0)
        g.add_task([a], flops=1.0, outputs=[out])
        sched, _ = make_scheduler("eager")
        result = simulate(g, toy_platform(memory=10.0), sched)
        # load 1s + compute 1s + store 5s
        assert result.makespan == pytest.approx(7.0)

    def test_outputs_count_in_admission(self):
        """A task whose inputs+outputs exceed memory is rejected."""
        g = TaskGraph()
        a = g.add_data(2.0)
        out = g.add_data(2.0)
        g.add_task([a], flops=1.0, outputs=[out])
        sched, _ = make_scheduler("eager")
        from repro.simulator.memory import MemoryFullError

        with pytest.raises(MemoryFullError):
            simulate(g, toy_platform(memory=3.0), sched)

    def test_output_evictable_after_store(self):
        """Once written back, outputs free their space for later tasks."""
        g = TaskGraph()
        data = [g.add_data(1.0) for _ in range(4)]
        outs = [g.add_data(1.0) for _ in range(4)]
        for i in range(4):
            g.add_task([data[i]], flops=1.0, outputs=[outs[i]])
        sched, _ = make_scheduler("eager")
        result = simulate(g, toy_platform(memory=2.0), sched, window=1)
        assert sum(s.n_tasks for s in result.gpus) == 4
        assert result.total_evictions > 0

    def test_stats_split_loads_and_stores(self):
        g, deps = producer_consumer(2)
        sched, _ = make_scheduler("eager")
        result = simulate(
            g, toy_platform(memory=4.0), sched, dependencies=deps
        )
        # only D0 is ever loaded (consumers reuse the local copy)
        assert result.total_loads == 1
        assert result.total_stores == 2

    def test_works_with_all_dynamic_schedulers(self):
        g, deps = producer_consumer(4)
        for name in ("eager", "dmdar", "darts+luf"):
            sched, ev = make_scheduler(name)
            result = simulate(
                g,
                toy_platform(n_gpus=2, memory=4.0),
                sched,
                eviction=ev,
                dependencies=deps,
                seed=2,
            )
            assert sum(s.n_tasks for s in result.gpus) == 4, name

    def test_peer_fabric_serves_produced_data(self):
        """With NVLink, a consumer can pull the output from the producer
        GPU without waiting for host residency."""
        from repro.core.schedule import Schedule
        from repro.platform.spec import BusSpec, GpuSpec, PlatformSpec
        from repro.schedulers.fixed import FixedSchedule

        g, deps = producer_consumer(2)
        plat = PlatformSpec(
            gpus=[GpuSpec(name="t", gflops=1e-9, memory_bytes=4.0)] * 2,
            bus=BusSpec(bandwidth=0.1, latency=0.0, model="fifo"),
            peer_link=BusSpec(bandwidth=100.0, latency=0.0, model="fair"),
        )
        sched = FixedSchedule(Schedule(order=[[0], [1]]))
        result = simulate(g, plat, sched, dependencies=deps)
        assert result.bytes_from_peer > 0
