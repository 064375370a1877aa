"""``bench_core.py --check``: the perf-smoke gate's arithmetic."""

import json
import os

import pytest

from benchmarks.bench_core import (
    E2E_CELLS,
    GATED,
    STATIC_PHASES,
    check_regression,
)

BASELINE = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_core.json"
)


def _committed():
    with open(BASELINE) as fh:
        return json.load(fh)


def _report(scale=1.0, static_scale=1.0):
    """A gate run whose fig3 cells take ``scale`` times the reference and
    whose static phases take ``static_scale`` times it."""
    old = _committed()
    cells = old["e2e"][GATED]["cells"]
    report = {
        "e2e": {
            GATED: {
                "cells": {
                    s: {"seconds": cells[s]["seconds"] * scale}
                    for s in E2E_CELLS[GATED]
                }
            }
        }
    }
    for group, seconds, digest in STATIC_PHASES:
        report[group] = {
            seconds: old[group][seconds] * static_scale,
            digest: old[group][digest],
        }
    return report


def test_reference_holds_every_gated_cell():
    assert set(_committed()["e2e"][GATED]["cells"]) == set(E2E_CELLS[GATED])


def test_matching_baseline_passes():
    assert check_regression(_report(), BASELINE, tolerance=0.25) == 0


def test_every_slowed_cell_fails(capsys):
    assert check_regression(_report(1.5), BASELINE, 0.25) == len(
        E2E_CELLS[GATED]
    )
    out = capsys.readouterr().out
    for scheduler in E2E_CELLS[GATED]:
        assert f"check {GATED} {scheduler}: x1.50 [REGRESSED]" in out


def test_one_slowed_cell_fails_alone():
    report = _report()
    slowed = report["e2e"][GATED]["cells"]["darts"]
    slowed["seconds"] *= 1.5
    assert check_regression(report, BASELINE, 0.25) == 1


@pytest.mark.parametrize("calibration_s", [0.01, 100.0])
def test_calibration_is_not_read(tmp_path, calibration_s):
    """Steady seconds compare as they are, whatever a file's yardstick."""
    baseline = _committed()
    baseline["calibration_s"] = calibration_s
    for group in baseline["e2e"].values():
        group["calibration_s"] = calibration_s
    path = tmp_path / "BENCH_core.json"
    path.write_text(json.dumps(baseline))
    report = _report()
    assert "calibration_s" not in report
    assert check_regression(report, str(path), 0.25) == 0
    assert check_regression(_report(1.5), str(path), 0.25) == len(
        E2E_CELLS[GATED]
    )


def test_every_slowed_static_phase_fails(capsys):
    assert check_regression(
        _report(static_scale=1.5), BASELINE, 0.25
    ) == len(STATIC_PHASES)
    out = capsys.readouterr().out
    for group, seconds, _ in STATIC_PHASES:
        assert f"check {group}.{seconds}: x1.50 [REGRESSED]" in out


def test_tampered_digests_fail(tmp_path):
    tampered = _committed()
    for group, _, digest in STATIC_PHASES:
        tampered[group][digest] = "0" * 64
    path = tmp_path / "BENCH_core.json"
    path.write_text(json.dumps(tampered))
    assert check_regression(_report(), str(path), 0.25) == len(
        STATIC_PHASES
    )
