"""End-to-end ``python -m repro.check`` behaviour and exit codes."""

import re

import pytest

from repro.check import cli
from repro.check.cli import (
    SMOKE_SCHEDULERS,
    THREE_INPUT_SMOKE_SCHEDULERS,
    main,
    run_smoke,
)


class TestExitCodes:
    def test_help_lists_only_smoke_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        options = set(re.findall(r"--[a-z-]+", out))
        assert options == {"--help", "--no-smoke", "--fault-smoke", "--verbose"}

    def test_no_smoke_runs_nothing(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_smoke", lambda verbose: pytest.fail("smoke ran")
        )
        assert main(["--no-smoke"]) == 0
        assert capsys.readouterr().out == ""

    def test_stage_problems_fail_and_count_schedulers(
        self, capsys, monkeypatch
    ):
        problems = ["dmda: SAN001 a", "dmda: SAN003 b", "eager: boom"]
        monkeypatch.setattr(cli, "run_smoke", lambda verbose: problems)
        assert main([]) == 1
        captured = capsys.readouterr()
        assert "smoke: dmda: SAN001 a" in captured.err.splitlines()
        assert "repro.check smoke: 6/8 schedulers clean" in captured.out

    def test_fault_smoke_runs_after_smoke(self, monkeypatch):
        calls = []
        for stage in ("run_smoke", "run_fault_smoke"):
            monkeypatch.setattr(
                cli, stage,
                lambda verbose, stage=stage: calls.append((stage, verbose))
                or [],
            )
        assert main(["--fault-smoke", "--verbose"]) == 0
        assert calls == [("run_smoke", True), ("run_fault_smoke", True)]


class TestSmoke:
    def test_smoke_covers_paper_strategies(self):
        assert {"eager", "dmda", "dmdar", "mhfp", "hmetis+r"} <= set(
            SMOKE_SCHEDULERS
        )

    def test_smoke_covers_three_input_variants(self):
        """The 3inputs fallback and OPTI run only on three-input tasks."""
        assert set(THREE_INPUT_SMOKE_SCHEDULERS) == {
            "darts+luf-3inputs",
            "darts+luf+opti-3inputs",
        }

    def test_smoke_runs_clean(self):
        assert run_smoke() == []
