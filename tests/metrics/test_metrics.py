"""Tests for measurement containers and report rendering."""

import pytest

from repro.metrics.collect import Measurement, Sweep
from repro.metrics.report import ascii_plot, format_series_table
from repro.simulator.trace import GpuStats, RunResult


def make_result(scheduler="X", makespan=2.0, loads=10):
    gpu = GpuStats(n_tasks=4, n_loads=loads, bytes_loaded=loads * 1e6,
                   n_evictions=1, busy_time=1.5, flops=8e9)
    return RunResult(
        scheduler=scheduler,
        n_gpus=1,
        makespan=makespan,
        total_flops=8e9,
        gpus=[gpu],
        prepare_time=1.0,
    )


class TestMeasurement:
    def test_from_result(self):
        m = Measurement.from_result(make_result(), n=5, working_set_mb=100.0)
        assert m.gflops == pytest.approx(4.0)  # 8e9 / 2s / 1e9
        assert m.gflops_with_sched == pytest.approx(8 / 3)
        assert m.transfers_mb == pytest.approx(10.0)
        assert m.loads == 10

    def test_metric_lookup(self):
        m = Measurement.from_result(make_result(), n=5, working_set_mb=100.0)
        assert m.metric("gflops") == m.gflops
        assert m.metric("transfers_mb") == m.transfers_mb
        assert m.metric("loads") == 10.0
        with pytest.raises(ValueError):
            m.metric("latency")


class TestSweep:
    def _sweep(self):
        sweep = Sweep(title="t")
        for n, ws in [(2, 10.0), (4, 20.0)]:
            for name, speed in [("A", 4.0), ("B", 2.0)]:
                r = make_result(name, makespan=8e9 / speed / 1e9)
                sweep.add(Measurement.from_result(r, n=n, working_set_mb=ws))
        return sweep

    def test_series_grouped_by_scheduler(self):
        sweep = self._sweep()
        assert sweep.schedulers() == ["A", "B"]
        assert sweep.series["A"].xs() == [10.0, 20.0]

    def test_gain_ratio(self):
        sweep = self._sweep()
        assert sweep.gain("gflops", "A", "B") == pytest.approx(2.0)

    def test_gain_last_k(self):
        sweep = self._sweep()
        assert sweep.gain("gflops", "A", "B", last_k=1) == pytest.approx(2.0)

    def test_gain_misaligned_raises(self):
        sweep = self._sweep()
        sweep.series["A"].points.pop()
        with pytest.raises(ValueError):
            sweep.gain("gflops", "A", "B")

    def test_series_mean(self):
        sweep = self._sweep()
        assert sweep.series["A"].mean("gflops") == pytest.approx(4.0)

    def test_both_serializations_share_one_layout(self):
        """``to_dict`` and ``deterministic_dict`` have the same keys and
        series order; their points differ only by the wall-clock
        fields."""
        sweep = Sweep(title="t", reference_lines={"bound": 1.0},
                      reference_curves={"limit": [1.0, 2.0]})
        for name in ("B", "A"):  # insertion order, not sorted
            sweep.add(Measurement.from_result(
                make_result(name), n=2, working_set_mb=10.0))
        full, det = sweep.to_dict(), sweep.deterministic_dict()
        assert list(full) == list(det)
        assert [s["scheduler"] for s in full["series"]] == ["B", "A"]
        assert [s["scheduler"] for s in det["series"]] == ["B", "A"]
        for key in ("title", "reference_lines", "reference_curves"):
            assert full[key] == det[key]
        for fs, ds in zip(full["series"], det["series"]):
            assert list(fs) == list(ds)
            for fp, dp in zip(fs["points"], ds["points"]):
                assert set(fp) - set(dp) == Measurement.WALL_CLOCK_FIELDS
                assert dp == {k: fp[k] for k in dp}


class TestReports:
    def test_table_contains_all_series_and_refs(self):
        sweep = Sweep(title="demo")
        r = make_result("SOLO")
        sweep.add(Measurement.from_result(r, n=2, working_set_mb=10.0))
        sweep.reference_lines["GFlop/s max"] = 99.0
        sweep.reference_curves["PCI"] = [123.0]
        text = format_series_table(sweep, metric="gflops")
        assert "SOLO" in text and "99.0" in text and "123" in text

    def test_table_empty_sweep(self):
        assert "empty" in format_series_table(Sweep(title="e"))

    def test_ascii_plot_renders(self):
        sweep = Sweep(title="demo")
        for ws in (10.0, 20.0, 30.0):
            r = make_result("SOLO", makespan=ws)
            sweep.add(Measurement.from_result(r, n=1, working_set_mb=ws))
        art = ascii_plot(sweep, metric="gflops")
        assert "o=SOLO" in art
        assert art.count("o") >= 3

    def test_ascii_plot_empty(self):
        assert "empty" in ascii_plot(Sweep(title="e"))
