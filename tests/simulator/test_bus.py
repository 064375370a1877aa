"""Timing-exact tests for the bus contention models."""

import pytest

from repro.platform.spec import BusSpec
from repro.simulator.bus import FairShareBus, FifoBus, make_bus
from repro.simulator.engine import SimulationEngine


def _completion_logger(eng):
    log = []
    def make(name):
        return lambda: log.append((name, eng.now))
    return log, make


class TestFifoBus:
    def test_single_transfer_duration(self):
        eng = SimulationEngine()
        bus = FifoBus(eng, BusSpec(bandwidth=10.0, latency=0.5, model="fifo"))
        log, make = _completion_logger(eng)
        bus.submit(20.0, dst=0, on_complete=make("a"))
        eng.run()
        assert log == [("a", pytest.approx(2.5))]  # 0.5 + 20/10

    def test_transfers_serialize(self):
        eng = SimulationEngine()
        bus = FifoBus(eng, BusSpec(bandwidth=10.0, latency=0.0, model="fifo"))
        log, make = _completion_logger(eng)
        bus.submit(10.0, dst=0, on_complete=make("a"))
        bus.submit(10.0, dst=1, on_complete=make("b"))
        eng.run()
        assert log == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]

    def test_accounting(self):
        eng = SimulationEngine()
        bus = FifoBus(eng, BusSpec(bandwidth=10.0, latency=0.0, model="fifo"))
        bus.submit(10.0, dst=0, on_complete=lambda: None)
        bus.submit(30.0, dst=1, on_complete=lambda: None)
        eng.run()
        assert bus.bytes_transferred == 40.0
        assert bus.n_transfers == 2

    def test_rejects_nonpositive_size(self):
        eng = SimulationEngine()
        bus = FifoBus(eng, BusSpec(bandwidth=10.0, model="fifo"))
        with pytest.raises(ValueError):
            bus.submit(0.0, dst=0, on_complete=lambda: None)


class TestFairShareBus:
    def _bus(self, bandwidth=10.0, latency=0.0):
        eng = SimulationEngine()
        return eng, FairShareBus(
            eng, BusSpec(bandwidth=bandwidth, latency=latency, model="fair")
        )

    def test_single_transfer_full_bandwidth(self):
        eng, bus = self._bus()
        log, make = _completion_logger(eng)
        bus.submit(30.0, dst=0, on_complete=make("a"))
        eng.run()
        assert log == [("a", pytest.approx(3.0))]

    def test_two_equal_transfers_share_evenly(self):
        """Two 10-byte transfers on a 10 B/s bus: both finish at t=2."""
        eng, bus = self._bus()
        log, make = _completion_logger(eng)
        bus.submit(10.0, dst=0, on_complete=make("a"))
        bus.submit(10.0, dst=1, on_complete=make("b"))
        eng.run()
        assert [t for _, t in log] == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_staggered_arrival_fluid_math(self):
        """b arrives at t=1 while a (20B) is half done: a gets 5 B/s
        afterwards, finishing at t=3; b (10B) finishes at t=3 too."""
        eng, bus = self._bus()
        log, make = _completion_logger(eng)
        bus.submit(20.0, dst=0, on_complete=make("a"))
        eng.schedule(1.0, lambda: bus.submit(10.0, dst=1, on_complete=make("b")))
        eng.run()
        times = dict(log)
        assert times["a"] == pytest.approx(3.0)
        assert times["b"] == pytest.approx(3.0)

    def test_short_transfer_overtakes(self):
        """A short transfer arriving mid-way finishes before a long one."""
        eng, bus = self._bus()
        log, make = _completion_logger(eng)
        bus.submit(100.0, dst=0, on_complete=make("long"))
        eng.schedule(1.0, lambda: bus.submit(5.0, dst=1, on_complete=make("short")))
        eng.run()
        assert log[0][0] == "short"
        # short: starts at 1, rate 5 B/s -> done at t=2
        assert log[0][1] == pytest.approx(2.0)
        # long: 90 B left at t=2, alone again -> 2 + 90/10 = 11... but it
        # progressed 10B before t=1 and 5B during sharing: 100-10-5=85
        assert log[1][1] == pytest.approx(1.0 + 1.0 + 85.0 / 10.0)

    def test_latency_penalises_each_transfer(self):
        eng, bus = self._bus(bandwidth=10.0, latency=1.0)
        log, make = _completion_logger(eng)
        bus.submit(10.0, dst=0, on_complete=make("a"))
        eng.run()
        assert log == [("a", pytest.approx(2.0))]  # 1s latency-equivalent

    def test_total_throughput_conserved(self):
        """N concurrent transfers of S bytes take exactly N*S/B seconds."""
        eng, bus = self._bus(bandwidth=8.0)
        log, make = _completion_logger(eng)
        for i in range(4):
            bus.submit(16.0, dst=i, on_complete=make(i))
        eng.run()
        assert max(t for _, t in log) == pytest.approx(4 * 16.0 / 8.0)
        assert bus.bytes_transferred == 64.0

    def test_busy_flag(self):
        eng, bus = self._bus()
        assert not bus.busy
        bus.submit(10.0, dst=0, on_complete=lambda: None)
        assert bus.busy
        eng.run()
        assert not bus.busy


class TestFactory:
    def test_make_bus_fair(self):
        eng = SimulationEngine()
        assert isinstance(make_bus(eng, BusSpec(model="fair")), FairShareBus)

    def test_make_bus_fifo(self):
        eng = SimulationEngine()
        assert isinstance(make_bus(eng, BusSpec(model="fifo")), FifoBus)
