#!/usr/bin/env python
"""Harness throughput benchmark: in-process vs pool vs warm cache.

Times the fig3 and fig8 small sweeps through the one sweep executor,
``harness.run_sweep``, in its three modes —

* serial      — ``jobs=1``: every cell in-process, no cache,
* parallel    — ``jobs=--jobs``: cells on a forked worker pool,
* cached      — a cold cache-populating run, then a warm rerun that
                performs zero simulations,

verifies all modes agree on every simulation-derived value, and writes
the wall-clock numbers to ``BENCH_harness.json`` (repo root) — the
first point of the repo's performance trajectory.

Parallel speedup is bounded by the CPUs actually available; the JSON
records ``host.cpu_count`` and ``host.usable_cpus`` so a 1-core CI
runner's numbers are not mistaken for a regression.

Usage::

    python benchmarks/bench_harness.py [--jobs 4] [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform as _platform
import shutil
import sys
import tempfile
import time
from typing import Any, Dict, Optional

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(
        0,
        os.path.abspath(
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
        ),
    )

DEFAULT_OUT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_harness.json")
)


def _time_figure(
    figure_id: str, points: Optional[int], jobs: int
) -> Dict[str, Any]:
    from repro.experiments.cache import ResultCache
    from repro.experiments.harness import enumerate_cells, figure_spec, run_sweep

    spec = figure_spec(figure_id, scale="small", points=points)
    n_cells = len(enumerate_cells(spec))

    t0 = time.perf_counter()
    serial = run_sweep(spec, jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    par = run_sweep(spec, jobs=jobs)
    parallel_s = time.perf_counter() - t0

    identical = json.dumps(serial.deterministic_dict()) == json.dumps(
        par.deterministic_dict()
    )

    cache_dir = tempfile.mkdtemp(prefix="bench-harness-cache-")
    try:
        cold_cache = ResultCache(cache_dir)
        t0 = time.perf_counter()
        run_sweep(spec, jobs=jobs, cache=cold_cache)
        cache_cold_s = time.perf_counter() - t0

        warm_cache = ResultCache(cache_dir)
        t0 = time.perf_counter()
        warm = run_sweep(spec, jobs=jobs, cache=warm_cache)
        cache_warm_s = time.perf_counter() - t0
        all_hits = warm_cache.hits == n_cells and warm_cache.misses == 0
        identical = identical and json.dumps(
            serial.deterministic_dict()
        ) == json.dumps(warm.deterministic_dict())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {
        "points": points if points is not None else len(spec.ns),
        "cells": n_cells,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "parallel_speedup": round(serial_s / parallel_s, 3)
        if parallel_s > 0
        else None,
        "cache_cold_s": round(cache_cold_s, 4),
        "cache_warm_s": round(cache_warm_s, 4),
        "cache_speedup": round(serial_s / cache_warm_s, 1)
        if cache_warm_s > 0
        else None,
        "warm_run_all_hits": all_hits,
        "identical_deterministic_output": identical,
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=4, help="parallel worker count"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="truncate sweeps for a fast smoke (CI)",
    )
    parser.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    args = parser.parse_args(argv)

    from repro.experiments.harness import usable_cpus

    figures = (
        {"fig3": 5, "fig8": 2} if args.quick else {"fig3": None, "fig8": 4}
    )
    report: Dict[str, Any] = {
        "benchmark": "harness-parallel-cache",
        "schema": 1,
        "created_unix": round(time.time(), 3),
        "host": {
            "python": _platform.python_version(),
            "platform": _platform.platform(),
            "cpu_count": os.cpu_count(),
            "usable_cpus": usable_cpus(),
        },
        "jobs": args.jobs,
        "figures": {},
    }
    if usable_cpus() < args.jobs:
        report["note"] = (
            f"parallel speedup bounded by {usable_cpus()} usable CPU(s); "
            f"--jobs {args.jobs} cannot exceed that"
        )

    for fid, points in figures.items():
        print(f"benchmarking {fid} (points={points}, jobs={args.jobs}) ...")
        stats = _time_figure(fid, points, args.jobs)
        report["figures"][fid] = stats
        print(
            f"  serial {stats['serial_s']:.2f}s | parallel "
            f"{stats['parallel_s']:.2f}s ({stats['parallel_speedup']}x) | "
            f"warm cache {stats['cache_warm_s']:.3f}s "
            f"({stats['cache_speedup']}x) | "
            f"identical={stats['identical_deterministic_output']}"
        )
        if not stats["identical_deterministic_output"]:
            print("ERROR: execution paths disagree", file=sys.stderr)
            return 1

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
