"""Tests for NVLink-style peer-to-peer transfers (paper §VI extension)."""

from unittest import mock

import pytest

from repro.platform.spec import BusSpec, GpuSpec, PlatformSpec, tesla_v100_node
from repro.schedulers.eager import Eager
from repro.schedulers.registry import make_scheduler
from repro.schedulers.fixed import FixedSchedule
from repro.core.schedule import Schedule
from repro.simulator.bus import FifoBus
from repro.simulator.engine import SimulationEngine
from repro.simulator.fabric import PeerFabric
from repro.simulator.faults import (
    DeviceFailure,
    FaultPlan,
    StragglerSlowdown,
    TransferCorruption,
)
from repro.simulator.runtime import simulate
from repro.workloads.matmul2d import matmul2d

from tests.conftest import toy_platform


def peer_platform(n_gpus=2, memory=4.0, host_bw=1.0, peer_bw=10.0):
    return PlatformSpec(
        gpus=[GpuSpec(name="toy", gflops=1e-9, memory_bytes=memory)] * n_gpus,
        bus=BusSpec(bandwidth=host_bw, latency=0.0, model="fifo"),
        peer_link=BusSpec(bandwidth=peer_bw, latency=0.0, model="fair"),
    )


class TestPeerRouting:
    def test_second_gpu_fetches_from_first(self, figure1_graph):
        """GPU1 runs the same tasks later: its data comes over peers."""
        sched = FixedSchedule(
            Schedule(order=[[0, 1, 2, 3, 4], [5, 6, 7, 8]])
        )
        result = simulate(figure1_graph, peer_platform(memory=6.0), sched)
        assert result.bytes_from_peer > 0
        assert result.peer_fraction > 0

    def test_no_peer_without_link(self, figure1_graph):
        result = simulate(
            figure1_graph, toy_platform(n_gpus=2, memory=6.0), Eager()
        )
        assert result.bytes_from_peer == 0.0
        assert result.bytes_from_host == result.total_bytes
        assert result.peer_fraction == 0.0

    def test_traffic_split_adds_up(self, figure1_graph):
        result = simulate(figure1_graph, peer_platform(memory=6.0), Eager())
        assert result.bytes_from_host + result.bytes_from_peer == (
            pytest.approx(result.total_bytes)
        )

    def test_single_gpu_never_uses_peers(self, figure1_graph):
        result = simulate(figure1_graph, peer_platform(n_gpus=1), Eager())
        assert result.bytes_from_peer == 0.0

    def test_all_tasks_still_execute(self, figure1_graph):
        result = simulate(figure1_graph, peer_platform(memory=3.0), Eager())
        assert sum(g.n_tasks for g in result.gpus) == 9


class TestPeerSemantics:
    def test_fast_peers_speed_up_replicated_schedules(self):
        """A schedule replicating one matrix on both GPUs benefits from
        peer links (the paper's §VI motivation)."""
        g = matmul2d(8, data_size=1.0, task_flops=1.0)
        # column-partition: both GPUs need all row data of A.  GPU1
        # walks the rows in reverse so its late rows are already
        # resident on GPU0 (simultaneous fetches cannot peer: the copy
        # is not PRESENT anywhere yet).
        left = [i * 8 + j for i in range(8) for j in range(4)]
        right = [i * 8 + j for i in reversed(range(8)) for j in range(4, 8)]
        sched_plain = FixedSchedule(Schedule(order=[left, right]))
        sched_peer = FixedSchedule(Schedule(order=[left, right]))
        plain = simulate(
            g,
            PlatformSpec(
                gpus=[GpuSpec(name="t", gflops=1e-9, memory_bytes=16.0)] * 2,
                bus=BusSpec(bandwidth=1.0, latency=0.0, model="fifo"),
            ),
            sched_plain,
        )
        peered = simulate(g, peer_platform(memory=16.0, peer_bw=50.0),
                          sched_peer)
        assert peered.bytes_from_peer > 0
        assert peered.makespan <= plain.makespan

    def test_peer_source_pinned_during_copy(self, figure1_graph):
        """Runs to completion without eviction races; invariants checked
        by the runtime's post-run assertions."""
        result = simulate(
            figure1_graph, peer_platform(memory=2.0), Eager(), seed=3
        )
        assert sum(g.n_tasks for g in result.gpus) == 9

    def test_deterministic_with_peers(self, figure1_graph):
        a = simulate(figure1_graph, peer_platform(memory=3.0), Eager(), seed=7)
        b = simulate(figure1_graph, peer_platform(memory=3.0), Eager(), seed=7)
        assert a.makespan == b.makespan
        assert a.bytes_from_peer == b.bytes_from_peer


class StubMemory:
    """Just enough DeviceMemory surface for source-selection tests."""

    def __init__(self, present=(), evicting=()):
        self._present = set(present)
        self._evicting = set(evicting)
        self.pinned = []

    def is_present(self, d):
        return d in self._present

    def is_evicting(self, d):
        return d in self._evicting

    def pin(self, d):
        self.pinned.append(d)

    def unpin(self, d):
        self.pinned.remove(d)


def make_fabric(memories):
    eng = SimulationEngine()
    host = FifoBus(eng, BusSpec(bandwidth=1.0, latency=0.0, model="fifo"))
    fabric = PeerFabric(
        eng,
        host,
        BusSpec(bandwidth=10.0, latency=0.0, model="fair"),
        n_gpus=len(memories),
    )
    fabric.attach(memories)
    return eng, fabric


class TestSourceSelection:
    def test_lowest_index_tie_break(self):
        _, fabric = make_fabric(
            [StubMemory(present={5}), StubMemory(present={5}), StubMemory()]
        )
        assert fabric._locate(5, dst=2) == 0

    def test_destination_never_chosen(self):
        _, fabric = make_fabric([StubMemory(present={5}), StubMemory()])
        assert fabric._locate(5, dst=0) is None

    def test_skips_source_mid_eviction(self):
        """Regression: the lowest-index GPU used to be chosen even while
        its copy was mid-eviction (between victim selection and state
        removal), handing the peer transfer a copy that no longer exists
        by the time it would read it."""
        _, fabric = make_fabric(
            [
                StubMemory(present={5}, evicting={5}),
                StubMemory(present={5}),
                StubMemory(),
            ]
        )
        assert fabric._locate(5, dst=2) == 1

    def test_falls_back_to_host_when_all_copies_evicting(self):
        evicting = StubMemory(present={5}, evicting={5})
        eng, fabric = make_fabric([evicting, StubMemory()])
        assert fabric._locate(5, dst=1) is None
        done = []
        fabric.submit(
            1.0, dst=1, on_complete=lambda: done.append(True), data_id=5
        )
        assert evicting.pinned == []  # the evicting copy is not a source
        eng.run()
        assert done == [True]
        assert fabric.host_bus.bytes_transferred == 1.0
        assert sum(ch.bytes_transferred for ch in fabric.peer_channels) == 0.0

    def test_peer_source_pinned_until_copy_lands(self):
        src = StubMemory(present={5})
        eng, fabric = make_fabric([src, StubMemory()])
        fabric.submit(1.0, dst=1, on_complete=lambda: None, data_id=5)
        assert src.pinned == [5]  # in flight: copy protected
        eng.run()
        assert src.pinned == []  # landed: pin released
        assert fabric.peer_channels[0].bytes_transferred == 1.0
        assert fabric.host_bus.bytes_transferred == 0.0


#: ``(bytes_from_host, bytes_from_peer)`` of matmul2d(10) with outputs
#: on 3 V100s × 100 MB with NVLink, recorded when the routers still
#: kept their own byte counts; the buses must report the same split.
OUTPUT_SPLIT_PINS = {
    "dmdar": (869990400.0, 221184000.0),
    "darts+luf": (722534400.0, 147456000.0),
}

#: the same split for matmul2d(12) on that platform under a fault plan
#: (GPU 1 fails, 20 % of fetches are corrupted and retried, GPU 0
#: straggles).  Each failure time catches one peer copy sourced from
#: GPU 1 in flight, so the pins cover peer-to-host failover too.
FAULT_SPLIT_PINS = {
    "darts+luf": (0.036, (1268121600.0, 132710400.0)),
    "dmdar": (0.031, (928972800.0, 309657600.0)),
    "eager": (0.026, (2890137600.0, 280166400.0)),
}


class TestTrafficSplitPins:
    def _run(self, name, graph, faults=None):
        sched, eviction = make_scheduler(name)
        platform = tesla_v100_node(3, memory_bytes=100e6, nvlink=True)
        return simulate(graph, platform, sched, eviction=eviction, faults=faults)

    @pytest.mark.parametrize("name", sorted(OUTPUT_SPLIT_PINS))
    def test_with_outputs(self, name):
        result = self._run(name, matmul2d(10, with_outputs=True))
        split = (result.bytes_from_host, result.bytes_from_peer)
        assert split == OUTPUT_SPLIT_PINS[name]

    @pytest.mark.parametrize("name", sorted(FAULT_SPLIT_PINS))
    def test_under_faults(self, name):
        fail_time, pinned = FAULT_SPLIT_PINS[name]
        plan = FaultPlan(
            seed=11,
            device_failures=(DeviceFailure(gpu=1, time=fail_time),),
            transfer_faults=TransferCorruption(probability=0.2),
            stragglers=(StragglerSlowdown(gpu=0, factor=1.5),),
        )
        real = PeerFabric._failover_to_host
        with mock.patch.object(
            PeerFabric, "_failover_to_host", autospec=True, side_effect=real
        ) as failover:
            result = self._run(name, matmul2d(12), faults=plan)
        assert failover.call_count == 1
        assert (result.bytes_from_host, result.bytes_from_peer) == pinned


class TestPreset:
    def test_nvlink_flag(self):
        plat = tesla_v100_node(4, nvlink=True)
        assert plat.peer_link is not None
        assert plat.peer_link.bandwidth == 48e9
        assert tesla_v100_node(4).peer_link is None
