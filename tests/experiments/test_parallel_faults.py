"""Fault tolerance of the sweep executor.

Chaos contract: killing a pool worker mid-sweep (SIGKILL, as the OOM
killer would) must yield a merged sweep byte-identical to the in-process
one — the affected cell is recomputed, not dropped.  On the pool, a cell
that fails persistently is excluded after ``max_attempts`` rounds,
reported in the merge footer, and only cleanly completed cells ever
reach the cache.  In-process (``jobs=1``), a failing cell raises.
"""

import os
import signal
import time

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


def _chaotic_run_cell(marker, kill_n, kill_name):
    """A run_cell that SIGKILLs its process on the first attempt of one
    cell (leaving ``marker`` behind so the retry succeeds)."""

    def chaotic(spec, n, name, rep, graph=None):
        if n == kill_n and name == kill_name and not os.path.exists(marker):
            open(marker, "w").close()
            os.kill(os.getpid(), signal.SIGKILL)
        return run_cell(spec, n, name, rep, graph=graph)

    return chaotic


class TestChaosRecovery:
    @needs_fork
    def test_killed_worker_cell_recomputed_identically(
        self, tmp_path, monkeypatch
    ):
        spec = tiny_spec()
        serial = run_sweep(spec)
        marker = str(tmp_path / "killed-once")
        monkeypatch.setattr(
            harness, "run_cell", _chaotic_run_cell(marker, 6, "eager")
        )
        chaos = run_sweep(spec, jobs=2, retry_backoff=0.05)
        assert os.path.exists(marker), "the chaos kill never fired"
        assert (
            serial.deterministic_dict() == chaos.deterministic_dict()
        ), "retried cell diverged from its serial value"

    @needs_fork
    def test_killed_worker_does_not_poison_cache(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        marker = str(tmp_path / "killed-once")
        monkeypatch.setattr(
            harness, "run_cell", _chaotic_run_cell(marker, 6, "eager")
        )
        cache = ResultCache(tmp_path / "cache")
        run_sweep(spec, jobs=2, cache=cache, retry_backoff=0.05)
        # every cell completed cleanly in the end, so all are cached and
        # a warm rerun works from cache alone
        warm = ResultCache(tmp_path / "cache")
        rerun = run_sweep(spec, jobs=1, cache=warm)
        assert warm.misses == 0
        assert rerun.deterministic_dict() == run_sweep(spec).deterministic_dict()


class TestExclusion:
    def _always_broken(self, bad_n, bad_name):
        def broken(spec, n, name, rep, graph=None):
            if n == bad_n and name == bad_name:
                raise RuntimeError("synthetic persistent failure")
            return run_cell(spec, n, name, rep, graph=graph)

        return broken

    @needs_fork
    def test_persistent_failure_excluded_and_reported(
        self, monkeypatch, capsys
    ):
        spec = tiny_spec()
        monkeypatch.setattr(
            harness, "run_cell", self._always_broken(6, "eager")
        )
        sweep = run_sweep(spec, jobs=2, max_attempts=2, retry_backoff=0.01)
        out = capsys.readouterr().out
        assert "excluded" in out
        assert "n=6 eager" in out
        # the surviving cells still form a usable partial sweep: the
        # eager series lost its n=6 point, the other series kept both
        ns_by_series = sorted(
            [p.n for p in s.points] for s in sweep.series.values()
        )
        assert ns_by_series == [[4], [4, 6]]

    @needs_fork
    def test_excluded_cell_not_cached(self, tmp_path, monkeypatch):
        spec = tiny_spec(schedulers=["eager"])
        monkeypatch.setattr(
            harness, "run_cell", self._always_broken(6, "eager")
        )
        cache = ResultCache(tmp_path / "cache")
        run_sweep(
            spec, jobs=2, cache=cache, max_attempts=2, retry_backoff=0.01
        )
        # exactly one cell (n=4) completed; only it may be cached
        files = list((tmp_path / "cache").rglob("*.json"))
        assert len(files) == 1

    @needs_fork
    def test_partial_average_uses_surviving_repetitions(self, monkeypatch):
        spec = tiny_spec(schedulers=["eager"], repetitions=2)

        def flaky(spec_, n, name, rep, graph=None):
            if n == 6 and rep == 1:
                raise RuntimeError("synthetic rep failure")
            return run_cell(spec_, n, name, rep, graph=graph)

        monkeypatch.setattr(harness, "run_cell", flaky)
        sweep = run_sweep(spec, jobs=2, max_attempts=1, retry_backoff=0.01)
        # n=6 still present, averaged over the single surviving rep
        ns = {p.n for s in sweep.series.values() for p in s.points}
        assert 6 in ns

    def test_in_process_cell_failure_raises(self, tmp_path, monkeypatch):
        spec = tiny_spec(schedulers=["eager"])
        monkeypatch.setattr(
            harness, "run_cell", self._always_broken(6, "eager")
        )
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(RuntimeError, match="synthetic persistent"):
            run_sweep(spec, jobs=1, cache=cache)
        # the n=4 cell completed before the failure and stays cached
        assert len(list((tmp_path / "cache").rglob("*.json"))) == 1


def _pid_alive(pid):
    """True while ``pid`` runs (a zombie awaiting its reaper counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


class TestTimeout:
    @needs_fork
    def test_hung_cell_times_out_and_is_excluded(
        self, monkeypatch, capsys, tmp_path
    ):
        spec = tiny_spec(schedulers=["eager"])
        pid_file = tmp_path / "hung.pid"

        def hanging(spec_, n, name, rep, graph=None):
            if n == 6:
                pid_file.write_text(str(os.getpid()))
                time.sleep(60.0)
            return run_cell(spec_, n, name, rep, graph=graph)

        monkeypatch.setattr(harness, "run_cell", hanging)
        sweep = run_sweep(
            spec,
            jobs=2,
            cell_timeout=1.5,
            max_attempts=1,
            retry_backoff=0.01,
        )
        out = capsys.readouterr().out
        assert "excluded" in out and "wall clock" in out
        ns = {p.n for s in sweep.series.values() for p in s.points}
        assert ns == {4}
        # the wedged worker is killed, not left to sleep out its hang
        pid = int(pid_file.read_text())
        deadline = time.monotonic() + 10.0
        while _pid_alive(pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not _pid_alive(pid), f"hung worker {pid} outlived the sweep"


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
