"""The sweep executor's failure rule, and fault plans threaded through it.

A cell is a pure function of its spec, so it is never retried: on both
paths (``jobs=1`` in-process, ``jobs=2`` on the fork pool) the first
failing cell stops the sweep with its own exception.  On the pool a
killed worker raises ``BrokenProcessPool`` and no worker outlives the
sweep.  Every cell that completed before the failure is cached, so a
warm rerun computes only the rest.
"""

import inspect
import multiprocessing
import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import harness
from repro.experiments.cache import ResultCache
from repro.experiments.harness import (
    SweepSpec,
    cell_key,
    fork_available,
    run_cell,
    run_sweep,
)
from repro.platform.spec import tesla_v100_node
from repro.simulator.faults import FaultPlan, StragglerSlowdown
from repro.workloads.matmul2d import matmul2d

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


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


def _failing_at(bad_n, before=lambda: None):
    """A run_cell whose n=``bad_n`` cells call ``before`` and then raise."""

    def failing(spec, n, name, rep, graph=None):
        if n == bad_n:
            before()
            raise ValueError(f"synthetic failure at n={n}")
        return run_cell(spec, n, name, rep, graph=graph)

    return failing


def _children_gone(deadline_s=10.0):
    """Whether every child process has exited within ``deadline_s``."""
    deadline = time.monotonic() + deadline_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children() == []


class TestOneFailureRule:
    def test_run_sweep_has_no_retry_or_timeout_options(self):
        params = list(inspect.signature(run_sweep).parameters)
        assert params == ["spec", "jobs", "cache", "verbose"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_exception_propagates_unchanged(self, monkeypatch, jobs):
        monkeypatch.setattr(harness, "run_cell", _failing_at(6))
        with pytest.raises(ValueError) as info:
            run_sweep(tiny_spec(), jobs=jobs)
        assert info.type is ValueError
        assert str(info.value) == "synthetic failure at n=6"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_cell_runs_once(self, tmp_path, monkeypatch, jobs):
        # the pool's workers are other processes, so count in a file
        log = tmp_path / "attempts"

        def record():
            with open(log, "a") as f:
                f.write("6\n")

        monkeypatch.setattr(harness, "run_cell", _failing_at(6, before=record))
        with pytest.raises(ValueError, match="synthetic failure"):
            run_sweep(tiny_spec(schedulers=["eager"]), jobs=jobs)
        assert log.read_text() == "6\n"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupt_keeps_cached_cell_and_stops_sweep(
        self, tmp_path, monkeypatch, jobs
    ):
        spec = tiny_spec(schedulers=["eager"])
        cache_dir = tmp_path / "cache"
        cache = ResultCache(cache_dir)
        put = cache.put

        def put_then_interrupt(key, m):
            put(key, m)
            raise KeyboardInterrupt  # Ctrl-C right after the first cell

        def slow_n6(spec, n, name, rep, graph=None):
            if n == 6:
                time.sleep(60.0)  # still running when the interrupt lands
            return run_cell(spec, n, name, rep, graph=graph)

        monkeypatch.setattr(cache, "put", put_then_interrupt)
        monkeypatch.setattr(harness, "run_cell", slow_n6)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, jobs=jobs, cache=cache)
        assert ResultCache(cache_dir).get(cell_key(spec, 4, "eager", 0)) is not None
        assert _children_gone()
        assert time.monotonic() - started < 30.0, "waited on the slow cell"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_finished_cells_cached_and_warm_rerun_completes(
        self, tmp_path, monkeypatch, jobs
    ):
        spec = tiny_spec(schedulers=["eager"])
        cache_dir = tmp_path / "cache"
        key4 = cell_key(spec, 4, "eager", 0)

        def wait_for_n4_entry():
            # on the pool the n=6 cell is dispatched first; fail only
            # once the parent has cached the n=4 cell
            probe = ResultCache(cache_dir)
            deadline = time.monotonic() + 30.0
            while probe.get(key4) is None and time.monotonic() < deadline:
                time.sleep(0.01)

        monkeypatch.setattr(
            harness, "run_cell", _failing_at(6, before=wait_for_n4_entry)
        )
        with pytest.raises(ValueError, match="synthetic failure"):
            run_sweep(spec, jobs=jobs, cache=ResultCache(cache_dir))
        assert ResultCache(cache_dir).get(key4) is not None

        monkeypatch.undo()
        warm = ResultCache(cache_dir)
        rerun = run_sweep(spec, jobs=jobs, cache=warm)
        assert (warm.hits, warm.misses) == (1, 1)
        assert rerun.deterministic_dict() == run_sweep(spec).deterministic_dict()


class TestPoolFailure:
    @needs_fork
    def test_killed_worker_raises_broken_pool(self, monkeypatch):
        parent = os.getpid()

        def killed(spec, n, name, rep, graph=None):
            if n == 6 and name == "eager" and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)  # as the OOM killer would
            return run_cell(spec, n, name, rep, graph=graph)

        monkeypatch.setattr(harness, "run_cell", killed)
        with pytest.raises(BrokenProcessPool):
            run_sweep(tiny_spec(), jobs=2)

    @needs_fork
    def test_cell_exception_carries_worker_traceback(self, monkeypatch):
        monkeypatch.setattr(harness, "run_cell", _failing_at(6))
        with pytest.raises(ValueError) as info:
            run_sweep(tiny_spec(), jobs=2)
        assert "synthetic failure at n=6" in str(info.value.__cause__)
        assert "Traceback" in str(info.value.__cause__)

    @needs_fork
    def test_no_worker_outlives_successful_sweep(self):
        run_sweep(tiny_spec(schedulers=["eager"]), jobs=2)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_no_worker_outlives_failed_sweep(self, monkeypatch):
        def hung_or_failing(spec, n, name, rep, graph=None):
            if n == 6:
                time.sleep(60.0)  # busy in a worker when n=4 fails
            raise ValueError("synthetic failure")

        monkeypatch.setattr(harness, "run_cell", hung_or_failing)
        started = time.monotonic()
        with pytest.raises(ValueError, match="synthetic failure"):
            run_sweep(tiny_spec(schedulers=["eager"]), jobs=2)
        assert _children_gone()
        assert time.monotonic() - started < 30.0, "waited on the hung worker"


class TestFaultPlanThreading:
    def test_fault_plan_reaches_every_cell(self):
        plan = FaultPlan(stragglers=(StragglerSlowdown(gpu=0, factor=2.0),))
        base = run_sweep(tiny_spec(schedulers=["eager"]))
        slowed = run_sweep(tiny_spec(schedulers=["eager"], faults=plan))
        for key in base.series:
            for pb, ps in zip(base.series[key].points, slowed.series[key].points):
                assert ps.makespan_s > pb.makespan_s

    def test_parallel_faulted_sweep_equals_serial(self):
        plan = FaultPlan(stragglers=(StragglerSlowdown(gpu=0, factor=1.5),))
        spec = tiny_spec(faults=plan)
        serial = run_sweep(spec)
        par = run_sweep(spec, jobs=2)
        assert serial.deterministic_dict() == par.deterministic_dict()

    def test_fault_plan_changes_cache_key(self, tmp_path):
        spec = tiny_spec()
        plan = FaultPlan(stragglers=(StragglerSlowdown(gpu=0, factor=1.5),))
        faulted = tiny_spec(faults=plan)
        g = spec.workload(4)
        assert cell_key(spec, 4, "eager", 0, graph=g) != cell_key(
            faulted, 4, "eager", 0, graph=g
        )
