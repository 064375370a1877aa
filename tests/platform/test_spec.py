"""Tests for platform specifications and presets."""

import pytest

from repro.platform.spec import BusSpec, GpuSpec, PlatformSpec, tesla_v100_node


class TestGpuSpec:
    def test_defaults_match_paper(self):
        g = GpuSpec()
        assert g.gflops == 13_253.0
        assert g.memory_bytes == 500e6

    def test_rejects_nonpositive_gflops(self):
        with pytest.raises(ValueError):
            GpuSpec(gflops=0)

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            GpuSpec(memory_bytes=-1)


class TestBusSpec:
    def test_defaults(self):
        b = BusSpec()
        assert b.bandwidth == 16e9
        assert b.model == "fair"

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown bus model"):
            BusSpec(model="token-ring")

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            BusSpec(latency=-1e-6)

    def test_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            BusSpec(bandwidth=0)


class TestPlatformSpec:
    def test_needs_a_gpu(self):
        with pytest.raises(ValueError):
            PlatformSpec(gpus=[])

    def test_aggregates(self):
        p = PlatformSpec(gpus=[GpuSpec(), GpuSpec()])
        assert p.n_gpus == 2

    def test_homogeneous_detection(self):
        assert PlatformSpec(gpus=[GpuSpec(), GpuSpec()]).homogeneous()
        mixed = PlatformSpec(gpus=[GpuSpec(), GpuSpec(gflops=1.0)])
        assert not mixed.homogeneous()


class TestPreset:
    def test_v100_node_counts(self):
        p = tesla_v100_node(4)
        assert p.n_gpus == 4
        assert p.homogeneous()

    def test_memory_override(self):
        p = tesla_v100_node(2, memory_bytes=250e6)
        assert all(g.memory_bytes == 250e6 for g in p.gpus)

    def test_unlimited_memory_is_32gb(self):
        p = tesla_v100_node(1, unlimited_memory=True)
        assert p.gpus[0].memory_bytes == 32e9

    def test_bus_model_selection(self):
        assert tesla_v100_node(1, bus_model="fifo").bus.model == "fifo"

    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            tesla_v100_node(0)
