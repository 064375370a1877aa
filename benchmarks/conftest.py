"""Benchmark harness support.

``bench_figures.py`` regenerates each paper figure at reduced scale (see
``repro.experiments.figures``), times the regeneration with
pytest-benchmark and records its series table; the ablations record
theirs too.  Tables are emitted in the terminal summary (so they survive
output capture and land in ``bench_output.txt``) and written to the
git-ignored ``benchmarks/out/``: their host-timed columns differ on
every run.  A change that moves results copies them into the committed
``benchmarks/results/``.
"""

from __future__ import annotations

import os
from typing import Dict

_TABLES: Dict[str, str] = {}

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


def record_table(name: str, text: str) -> None:
    """Register a figure's series table for the terminal summary."""
    _TABLES[name] = text
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 78)
    terminalreporter.write_line(
        "Regenerated paper figures (series tables; see EXPERIMENTS.md "
        "for paper-vs-measured)"
    )
    terminalreporter.write_line("=" * 78)
    for name in sorted(_TABLES):
        terminalreporter.write_line("")
        terminalreporter.write_line(_TABLES[name])
