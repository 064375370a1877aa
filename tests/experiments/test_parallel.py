"""Equivalence tests: pool/cached execution vs the in-process sweep."""

import json

import pytest

from repro.experiments import harness
from repro.experiments.cache import ResultCache
from repro.experiments.harness import (
    Cell,
    SweepSpec,
    enumerate_cells,
    run_sweep,
    usable_cpus,
)
from repro.platform.spec import tesla_v100_node
from repro.workloads.matmul2d import matmul2d


def tiny_spec(**overrides):
    base = dict(
        title="tiny",
        workload=lambda n: matmul2d(n),
        ns=[4, 6],
        platform=lambda: tesla_v100_node(1, memory_bytes=120e6),
        schedulers=["eager", "darts+luf"],
    )
    base.update(overrides)
    return SweepSpec(**base)


def assert_deterministically_equal(a, b):
    """Measurement-for-measurement equality on bit-reproducible fields."""
    assert list(a.series) == list(b.series)
    da, db = a.deterministic_dict(), b.deterministic_dict()
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    for key in a.series:
        for pa, pb in zip(a.series[key].points, b.series[key].points):
            assert pa.deterministic_dict() == pb.deterministic_dict()


class TestParallelEquivalence:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_parallel_equals_serial(self, jobs):
        spec = tiny_spec(repetitions=2, no_sched_time_variants=["eager"])
        serial = run_sweep(spec)
        par = run_sweep(spec, jobs=jobs)
        assert_deterministically_equal(serial, par)

    def test_reference_lines_and_curves_match(self):
        spec = tiny_spec()
        serial = run_sweep(spec)
        par = run_sweep(spec, jobs=2)
        assert serial.reference_lines == par.reference_lines
        assert serial.reference_curves == par.reference_curves

    def test_worker_counts_agree_with_each_other(self):
        spec = tiny_spec(schedulers=["eager", "dmdar", "darts+luf"])
        sweeps = [run_sweep(spec, jobs=j) for j in (1, 2, 4)]
        for other in sweeps[1:]:
            assert_deterministically_equal(sweeps[0], other)

    def test_enumerate_cells_matches_serial_order(self):
        spec = tiny_spec(repetitions=2)
        cells = enumerate_cells(spec)
        assert cells == [
            Cell(n, name, rep)
            for n in spec.ns
            for name in spec.schedulers
            for rep in range(2)
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_instance_built_once(self, jobs, tmp_path):
        built = []

        def workload(n):
            built.append(n)
            return matmul2d(n)

        spec = tiny_spec(workload=workload)
        run_sweep(spec, jobs=jobs, cache=ResultCache(tmp_path / "c"))
        assert sorted(built) == sorted(spec.ns)

    def test_usable_cpus_positive(self):
        assert usable_cpus() >= 1


class TestCacheEquivalence:
    def test_warm_rerun_identical_with_zero_simulations(
        self, tmp_path, monkeypatch
    ):
        spec = tiny_spec(repetitions=2)
        n_cells = len(enumerate_cells(spec))

        cold_cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(spec, jobs=1, cache=cold_cache)
        assert cold_cache.misses == n_cells
        assert cold_cache.hits == 0

        calls = {"n": 0}
        real_simulate = harness.simulate

        def counting_simulate(*args, **kwargs):
            calls["n"] += 1
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate", counting_simulate)

        warm_cache = ResultCache(tmp_path / "cache")
        warm = run_sweep(spec, jobs=1, cache=warm_cache)
        assert calls["n"] == 0, "warm-cache rerun must not simulate"
        assert warm_cache.hits == n_cells
        assert warm_cache.misses == 0
        # cache-served cells reproduce the cold run byte-for-byte,
        # wall-clock fields included
        assert json.dumps(cold.to_dict()) == json.dumps(warm.to_dict())

    def test_cold_run_simulates_every_cell(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        n_cells = len(enumerate_cells(spec))
        calls = {"n": 0}
        real_simulate = harness.simulate

        def counting_simulate(*args, **kwargs):
            calls["n"] += 1
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate", counting_simulate)
        run_sweep(spec, jobs=1, cache=ResultCache(tmp_path / "c"))
        assert calls["n"] == n_cells

    def test_partial_cache_only_computes_missing_cells(
        self, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "cache"
        narrow = tiny_spec(schedulers=["eager"])
        run_sweep(narrow, jobs=1, cache=ResultCache(cache_dir))

        calls = {"n": 0}
        real_simulate = harness.simulate

        def counting_simulate(*args, **kwargs):
            calls["n"] += 1
            return real_simulate(*args, **kwargs)

        monkeypatch.setattr(harness, "simulate", counting_simulate)
        wide = tiny_spec(schedulers=["eager", "darts+luf"])
        cache = ResultCache(cache_dir)
        run_sweep(wide, jobs=1, cache=cache)
        # eager cells are reused; only the darts+luf cells simulate
        assert calls["n"] == len(wide.ns)
        assert cache.hits == len(wide.ns)
        assert cache.misses == len(wide.ns)

    def test_cached_sweep_equals_uncached_serial(self, tmp_path):
        spec = tiny_spec()
        serial = run_sweep(spec)
        cached = run_sweep(
            spec, jobs=2, cache=ResultCache(tmp_path / "c")
        )
        assert_deterministically_equal(serial, cached)
