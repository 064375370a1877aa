"""End-to-end ``python -m repro.check`` behaviour and exit codes."""

import json

import pytest

from repro.check.cli import (
    SMOKE_SCHEDULERS,
    THREE_INPUT_SMOKE_SCHEDULERS,
    main,
    run_smoke,
)


class TestExitCodes:
    def test_clean_repo_lints_to_zero(self, capsys):
        assert main(["--no-smoke"]) == 0
        out = capsys.readouterr().out
        assert "no violations" in out

    def test_unseeded_random_in_scheduler_fails_with_rule_code(
        self, tmp_path, capsys
    ):
        """Acceptance: replacing a seeded random.Random with module-level
        random.random() in a scheduler makes the check exit non-zero and
        name the rule."""
        bad = tmp_path / "repro" / "schedulers" / "hacked.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import random\n"
            "class Hacked:\n"
            "    def next_task(self, gpu):\n"
            "        return int(random.random() * 4)\n"
        )
        assert main(["--no-smoke", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out

    def test_json_output(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        assert main(["--no-smoke", "--json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["violations"][0]["code"] == "DET002"

    def test_rule_selection(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nt = time.time()\n")
        # Only DET001 selected: the wall-clock hit is not reported.
        assert main(["--no-smoke", "--rules", "DET001", str(bad)]) == 0

    def test_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["--no-smoke", "--rules", "NOPE999", str(tmp_path)])

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "API001",
            "API002",
            "API003",
        ):
            assert code in out


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
