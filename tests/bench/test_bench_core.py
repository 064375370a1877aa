"""``bench_core.py --check`` fails on changed static-phase output."""

import json
import os

from benchmarks.bench_core import STATIC_DIGESTS, check_regression

BASELINE = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "BENCH_core.json"
)


def _committed():
    with open(BASELINE) as fh:
        return json.load(fh)


def _report():
    """A run with no e2e cells whose static phases match the commit."""
    old = _committed()
    report = {"calibration_s": old["calibration_s"], "e2e": {}}
    for group, field in STATIC_DIGESTS:
        report[group] = {field: old[group][field]}
    return report


def test_matching_baseline_passes():
    assert check_regression(_report(), BASELINE, tolerance=0.25) == 0


def test_tampered_digests_fail(tmp_path):
    tampered = _committed()
    for group, field in STATIC_DIGESTS:
        tampered[group][field] = "0" * 64
    path = tmp_path / "BENCH_core.json"
    path.write_text(json.dumps(tampered))
    assert check_regression(_report(), str(path), 0.25) == len(
        STATIC_DIGESTS
    )

