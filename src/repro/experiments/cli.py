"""Command-line entry point: regenerate paper figures as text tables.

Examples::

    python -m repro.experiments fig3
    python -m repro.experiments fig8 --scale paper --plot
    python -m repro.experiments all --scale small
    python -m repro.experiments fig3 --jobs 4           # fan out cells
    python -m repro.experiments fig3 --no-cache         # force recompute
    python -m repro.experiments fig3 --fault-plan plan.json   # inject faults

Sweep cells run through :func:`repro.experiments.harness.run_sweep`:
``--jobs N`` fans independent ``(n, scheduler, repetition)`` simulations
across N worker processes (default: all usable CPUs; 1 runs them
in-process), and results are memoised in a
content-addressed cache under ``--cache-dir`` (default
``.repro-cache/``) so re-running a figure is near-instant unless the
code, the instance, or the seed changed.  The per-figure footer reports
wall-clock time and cache hit/miss counts.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.experiments.figures import FIGURES
from repro.experiments.harness import run_figure, usable_cpus
from repro.metrics.report import ascii_plot, format_series_table
from repro.simulator.faults import load_fault_plan


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the IPDPS'22 paper's evaluation figures "
        "on the simulated platform.",
    )
    parser.add_argument(
        "figure",
        help=f"figure id ({', '.join(sorted(FIGURES))}) or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=["small", "paper"],
        default="small",
        help="instance sizes: 'small' runs in minutes, 'paper' is closer "
        "to the paper's sweep (slower)",
    )
    parser.add_argument(
        "--plot", action="store_true", help="also print an ASCII plot"
    )
    parser.add_argument(
        "--points",
        type=int,
        default=None,
        help="only run the first N working-set points of the sweep",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent sweep cells "
        "(default: all CPUs; 1 = in-process serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        help="directory of the content-addressed result cache "
        f"(default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the result cache",
    )
    parser.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH_OR_JSON",
        help="deterministic fault-injection plan applied to every sweep "
        "cell: a JSON file path, or an inline JSON object (starts with "
        "'{'); see repro.simulator.faults.FaultPlan",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print points as they finish"
    )
    args = parser.parse_args(argv)

    faults = None
    if args.fault_plan is not None:
        try:
            faults = load_fault_plan(args.fault_plan)
        except (OSError, ValueError) as exc:
            print(f"bad --fault-plan: {exc}")
            return 2

    figure_ids = sorted(FIGURES) if args.figure == "all" else [args.figure]
    unknown = [fid for fid in figure_ids if fid not in FIGURES]
    if unknown:
        # validate up front: nothing runs if any requested figure is bad
        print(f"unknown figure {unknown[0]!r}; known: {sorted(FIGURES)}")
        return 2

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    for fid in figure_ids:
        config = FIGURES[fid]
        print(f"== {fid}: {config.title} ==")
        if config.notes:
            print(f"   {config.notes}")
        before = cache.snapshot() if cache is not None else None
        t0 = time.perf_counter()
        sweep = run_figure(
            fid,
            scale=args.scale,
            points=args.points,
            jobs=usable_cpus() if args.jobs is None else args.jobs,
            cache=cache,
            verbose=args.verbose,
            faults=faults,
        )
        elapsed = time.perf_counter() - t0
        print(format_series_table(sweep, metric=config.metric))
        if args.plot:
            print(ascii_plot(sweep, metric=config.metric))
        if cache is not None and before is not None:
            stats = cache.stats_since(before)
            print(
                f"   [{elapsed:.1f}s] [cache: {stats['hits']} hits, "
                f"{stats['misses']} misses, dir {cache.cache_dir}]\n"
            )
        else:
            print(f"   [{elapsed:.1f}s] [cache off]\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
