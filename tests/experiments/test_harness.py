"""Tests for the experiment harness and the figure registry."""

from dataclasses import replace

import pytest

from repro.experiments.figures import FIGURES, Check, Gain
from repro.experiments.harness import SweepSpec, run_figure, run_sweep
from repro.metrics.collect import Measurement, Sweep
from repro.platform.spec import tesla_v100_node
from repro.schedulers.registry import make_scheduler
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


class TestRunSweep:
    def test_series_aligned_across_schedulers(self):
        sweep = run_sweep(tiny_spec())
        xs = {tuple(s.xs()) for s in sweep.series.values()}
        assert len(xs) == 1
        assert len(next(iter(xs))) == 2

    def test_reference_lines_present(self):
        sweep = run_sweep(tiny_spec())
        assert "GFlop/s max" in sweep.reference_lines
        assert sweep.reference_lines["GFlop/s max"] == pytest.approx(13253.0)
        assert len(sweep.reference_curves["PCI bus limit (MB)"]) == 2

    def test_no_sched_time_variant_added(self):
        sweep = run_sweep(
            tiny_spec(schedulers=["hmetis+r"],
                      no_sched_time_variants=["hmetis+r"])
        )
        assert "hMETIS+R" in sweep.series
        assert "hMETIS+R no sched. time" in sweep.series
        pure = sweep.series["hMETIS+R no sched. time"].points[0]
        assert pure.gflops == pure.gflops_with_sched

    def test_repetitions_average(self):
        sweep = run_sweep(tiny_spec(ns=[4], repetitions=3))
        assert len(sweep.series["EAGER"].points) == 1

    def test_threshold_only_reaches_darts(self):
        spec = tiny_spec(
            schedulers=["eager", "darts+luf+threshold"], threshold=2
        )
        sweep = run_sweep(spec)
        assert "DARTS+LUF+threshold" in sweep.series


class TestFigureRegistry:
    def test_all_eleven_figures_registered(self):
        assert sorted(FIGURES) == [f"fig{i}" for i in range(10, 14)] + [
            f"fig{i}" for i in range(3, 10)
        ]

    def test_every_figure_has_both_scales(self):
        for cfg in FIGURES.values():
            assert cfg.ns_small and cfg.ns_paper
            assert cfg.metric in (
                "gflops",
                "gflops_with_sched",
                "transfers_mb",
            )

    def test_spec_builds_for_both_scales(self):
        for cfg in FIGURES.values():
            for scale in ("small", "paper"):
                spec = cfg.spec(scale)
                assert spec.ns
                assert spec.platform().n_gpus == cfg.n_gpus

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            FIGURES["fig3"].spec("huge")

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="unknown figure"):
            run_figure("fig99")

    def test_unlimited_memory_figure(self):
        plat = FIGURES["fig13"].platform_factory("small")()
        assert plat.gpus[0].memory_bytes == 32e9

    def test_memory_small_only_applies_to_small_scale(self):
        cfg = FIGURES["fig8"]
        small = cfg.platform_factory("small")()
        paper = cfg.platform_factory("paper")()
        assert small.gpus[0].memory_bytes == 250e6
        assert paper.gpus[0].memory_bytes == 500e6


def point(scheduler, n, **fields):
    """A hand-built measurement; unspecified values are 1."""
    base = dict(
        scheduler=scheduler,
        n=n,
        working_set_mb=float(n),
        gflops=1.0,
        gflops_with_sched=1.0,
        transfers_mb=1.0,
        loads=1,
        evictions=0,
        makespan_s=1.0,
        balance=1.0,
        virtual_decision_time_s=1.0,
    )
    base.update(fields)
    return Measurement(**base)


def produced_series(cfg):
    """Series names a figure's sweep produces, without simulating."""
    names = set()
    for name in cfg.schedulers:
        display = make_scheduler(name)[0].name
        names.add(display)
        if name in cfg.no_sched_time_variants:
            names.add(f"{display} no sched. time")
    return names


def hand_sweep(series, base, rows):
    """Points n = 1, 2, 3 of each series: ``base`` sets fields of every
    point, ``rows[name][i]`` overrides point ``i`` of series ``name``."""
    sweep = Sweep(title="hand-built")
    sweep.reference_curves["PCI bus limit (MB)"] = [10.0, 10.0, 10.0]
    for name in series:
        for i, overrides in enumerate(rows.get(name, [{}, {}, {}])):
            sweep.add(point(name, i + 1, **{**base, **overrides}))
    return sweep


OPTI = "DARTS+LUF+OPTI-3inputs"
# (figure, index among its Checks, base fields, rows that hold, rows
# that break the check, the value measured on the breaking sweep)
POINTWISE = [
    # EAGER over the PCI limit on one of the last 3 points
    ("fig4", 0, {"transfers_mb": 5.0},
     {"EAGER": [{}, {}, {"transfers_mb": 12.0}]}, {}, -5.0),
    # DARTS+LUF never over it (touching it is allowed)
    ("fig4", 1, {"transfers_mb": 10.0},
     {}, {"DARTS+LUF": [{"transfers_mb": 11.0}, {}, {}]}, 1.0),
    # traffic never below the working set
    ("fig7", 0, {"working_set_mb": 10.0, "transfers_mb": 20.0},
     {}, {"DARTS": [{}, {"transfers_mb": 5.0}, {}]}, 0.5),
    # threshold makespan within 1.6x on the last 2 points
    ("fig8", 0, {"makespan_s": 1.0},
     {"DARTS+LUF+threshold": [{}, {"makespan_s": 1.5}, {"makespan_s": 1.5}]},
     {"DARTS+LUF+threshold": [{}, {}, {"makespan_s": 2.0}]}, 2.0),
    # OPTI's modelled decision time under 0.7x the full scan's
    ("fig11", 0, {"virtual_decision_time_s": 1.0},
     {OPTI: [{"virtual_decision_time_s": 0.25}] * 3},
     {OPTI: [{"virtual_decision_time_s": 0.8}] * 3},
     0.8),
    # zero evictions without a memory limit
    ("fig13", 0, {"evictions": 0},
     {}, {"DMDAR": [{}, {"evictions": 3}, {}]}, 3.0),
]


def pointwise_checks(cfg):
    return [c for c in cfg.claims if isinstance(c, Check)]


class TestFigureClaims:
    def test_claims_read_series_the_figure_produces(self):
        bad = []
        for figure_id, cfg in sorted(FIGURES.items()):
            produced = produced_series(cfg)
            if not cfg.claims:
                bad.append(f"{figure_id}: no claims")
            for claim in cfg.claims:
                if not claim.series or not set(claim.series) <= produced:
                    bad.append(f"{figure_id}: {claim}")
                if isinstance(claim, Gain):
                    point("x", 1).metric(claim.metric)  # raises if unknown
                    if not 1 <= claim.last_k <= len(cfg.ns_small):
                        bad.append(f"{figure_id}: {claim}")
            for k in range(len(pointwise_checks(cfg))):
                if not any(c[:2] == (figure_id, k) for c in POINTWISE):
                    bad.append(f"{figure_id}: Check {k} has no POINTWISE case")
        assert not bad

    def test_failed_claims_come_back_with_their_values(self):
        sweep = Sweep(title="hand-built")
        for n, a, b in [(4, 10.0, 5.0), (6, 10.0, 20.0)]:
            sweep.add(point("A", n, gflops=a))
            sweep.add(point("B", n, gflops=b, evictions=3))
        holds = Gain("gflops", "A", "B", 1.2, last_k=2)  # (2 + 0.5) / 2
        fails = Gain("gflops", "A", "B", 1.0, last_k=1)
        evictions = Check(
            "B never evicts",
            ("B",),
            lambda sweep, b: (sum(p.evictions for p in b.points), False),
        )
        cfg = replace(FIGURES["fig3"], claims=[holds, fails, evictions])
        assert cfg.failed_claims(sweep) == [(fails, 0.5), (evictions, 6)]

    @pytest.mark.parametrize(
        "figure_id, k, base, holding, breaking, value",
        POINTWISE,
        ids=[f"{case[0]}-{case[1]}" for case in POINTWISE],
    )
    def test_pointwise_check_decides_on_its_series(
        self, figure_id, k, base, holding, breaking, value
    ):
        check = pointwise_checks(FIGURES[figure_id])[k]
        assert check.evaluate(hand_sweep(check.series, base, holding))[1]
        cfg = replace(FIGURES[figure_id], claims=[check])
        broken = hand_sweep(check.series, base, breaking)
        assert cfg.failed_claims(broken) == [(check, pytest.approx(value))]


class TestCli:
    def test_cli_runs_a_figure(self, capsys):
        from repro.experiments import cli

        rc = cli.main(
            ["fig4", "--scale", "small", "--points", "2", "--no-cache"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fig4" in out and "EAGER" in out
        assert "[cache off]" in out

    def test_cli_unknown_figure(self, capsys):
        from repro.experiments import cli

        assert cli.main(["fig99"]) == 2
        out = capsys.readouterr().out
        assert "unknown figure" in out

    def test_cli_rejects_unknown_figure_before_running(self, capsys):
        """Validation happens up front — no sweep output precedes it."""
        from repro.experiments import cli

        assert cli.main(["fig98", "--points", "1"]) == 2
        out = capsys.readouterr().out
        assert "==" not in out

    def test_cli_cache_cold_then_warm(self, tmp_path, capsys):
        from repro.experiments import cli

        argv = [
            "fig4",
            "--points",
            "1",
            "--jobs",
            "2",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert cli.main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 hits, 5 misses" in cold
        assert cli.main(argv) == 0
        warm = capsys.readouterr().out
        assert "5 hits, 0 misses" in warm

    def test_cli_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        import sys

        from repro.experiments import cli

        monkeypatch.setattr(sys, "argv", ["repro-experiments", "fig99"])
        assert cli.main() == 2


class TestRepSeedWiring:
    def test_cells_receive_mixed_seeds(self, monkeypatch):
        """run_sweep must pass rep_seed(...) to simulate, not seed+rep."""
        from repro.experiments import harness

        seen = []
        real = harness.simulate

        def spy(graph, platform, sched, **kwargs):
            seen.append(kwargs["seed"])
            return real(graph, platform, sched, **kwargs)

        monkeypatch.setattr(harness, "simulate", spy)
        spec = tiny_spec(ns=[4], schedulers=["eager", "dmdar"],
                         repetitions=2)
        run_sweep(spec)
        expected = [
            harness.rep_seed(0, name, 4, rep)
            for name in ("eager", "dmdar")
            for rep in range(2)
        ]
        assert seen == expected
        assert len(set(seen)) == 4
