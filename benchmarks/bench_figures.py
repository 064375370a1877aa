"""Paper Figures 3-13: regenerate each figure and check its claims.

One test per :data:`repro.experiments.figures.FIGURES` entry.  It times
the whole small-scale regeneration (``run_figure``, in-process, no
cache) in one round — a sweep is seconds-scale, and its simulated
values are deterministic, so repetition buys nothing — records the
series table, and then checks the claims the figure's ``FigureConfig``
states, reporting every claim that fails with its measured value.
"""

import pytest

from benchmarks.conftest import record_table
from repro.experiments.figures import FIGURES
from repro.experiments.harness import run_figure
from repro.metrics.report import format_series_table


@pytest.mark.parametrize("figure_id", sorted(FIGURES, key=lambda f: int(f[3:])))
def test_figure(benchmark, figure_id):
    cfg = FIGURES[figure_id]
    sweep = benchmark.pedantic(
        run_figure, args=(figure_id,), rounds=1, iterations=1
    )
    header = f"[paper {figure_id}] {cfg.title} — metric: {cfg.metric}"
    record_table(
        figure_id, header + "\n" + format_series_table(sweep, metric=cfg.metric)
    )
    failed = cfg.failed_claims(sweep)
    assert not failed, "\n".join(
        f"{claim}: measured {value:.3f}" for claim, value in failed
    )
