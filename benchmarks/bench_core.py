#!/usr/bin/env python
"""Host-time benchmark: sweep cells, static phases and sweep modes.

Times on perfbench's steady clock (``perfbench/hostclock.py``: host
seconds rescaled by a speed probe sampled throughout the timed work),
the sweep modes in plain host seconds —

* e2e        — every scheduler cell of the fig3 (n=48) and fig8 (n=70)
               sweeps, and the fig11 (n=26) DARTS 3inputs cells, via
               ``harness.run_cell``,
* hfp_pack   — HFP's packing on the fig3 workload (mHFP's static phase),
* partition  — ``partition_tasks`` on the fig8 workload (hMETIS+R's
               static phase),
* sweeps     — the fig3 and fig8 small sweeps through ``run_sweep``:
               serially, on a pool of :data:`POOL_JOBS` workers, and
               with a cold then a warm result cache; every mode must
               give the serial sweep's deterministic output, or the run
               exits non-zero,

and writes the numbers to ``BENCH_core.json`` (repo root), keeping the
file's hand-recorded :data:`HISTORY` blocks.  The static phases'
output digests are recorded too, so a speedup that changes packages
or partitions does not pass as one.

``--check BASELINE`` is the CI perf-smoke gate: it compares each e2e
cell's and each static phase's steady seconds with the baseline's as
they are (across hosts, too) and fails on a slowdown beyond
``--tolerance``, or on a static phase whose digest differs from the
baseline's.  The reference (a full run) records each cell and phase at
the median of :data:`RECORD_RUNS` measurements of the statistic the
gate takes once.  A quick run writes a file only when given ``--out``,
so it never replaces the reference.

Usage::

    python benchmarks/bench_core.py [--out PATH]
    python benchmarks/bench_core.py --quick --check BENCH_core.json
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform as _platform
import statistics
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without `pip install -e .`
    sys.path.insert(
        0,
        os.path.abspath(
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
        ),
    )

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
DEFAULT_OUT = os.path.join(ROOT, "BENCH_core.json")

#: End-to-end cells per sweep group; ``--quick`` (the CI perf smoke)
#: runs the gated fig3 group only.
E2E_CELLS: Dict[str, List[str]] = {
    "fig3:48": ["eager", "dmdar", "mhfp", "darts", "darts+luf"],
    "fig8:70": [
        "eager",
        "dmdar",
        "hmetis+r",
        "darts",
        "darts+luf",
        "darts+luf+threshold",
    ],
    "fig11:26": ["darts+luf-3inputs", "darts+luf+opti-3inputs"],
}
GATED = "fig3:48"

#: One sample of a cell is this many back-to-back ``run_cell`` calls: a
#: single ~50 ms fig3 cell may contain no probe period, and then one
#: probe after it sets the scale.
SAMPLE_CALLS = 5
#: A cell takes the best of this many samples, one per pass through all
#: cells, so that a slow stretch of a shared host (up to tens of
#: seconds) rarely covers every sample of a cell.  Over 30 rounds of the
#: fig3 cells on a shared 2-vCPU host, gates built from that series
#: read some cell above 1.25x its median in 2 of 30 runs with two
#: back-to-back samples, 1 of 15 with two passes and 0 of 10 with three
#: passes (worst x1.24).
SAMPLES = 3
#: A full run measures every cell this many times and records the
#: median, the reference the gate's single measurement is compared with.
RECORD_RUNS = 3

#: Sweep modes' worker pool; a constant because the reference host has
#: one or two usable CPUs.
POOL_JOBS = 2
#: Points per swept figure (None: all of its small-scale points).
SWEEP_POINTS = {"fig3": None, "fig8": 4}
SWEEP_POINTS_QUICK = {"fig3": 5, "fig8": 2}

#: (report group, seconds field, output digest field) of each static phase
STATIC_PHASES = (
    ("hfp_pack", "pack_s", "packages_sha256"),
    ("partition", "partition_s", "parts_sha256"),
)

#: Blocks of ``BENCH_core.json`` recorded by hand (before/after pairs of
#: past speedups, tier-1 wall time) that a re-recording carries over.
HISTORY = (
    "held_set_path",
    "paper_scale",
    "paper_scale_fig11",
    "runtime_floor",
    "static_phases",
    "static_phases_early_stop",
    "tier1",
)


def calibrate() -> float:
    """Time a fixed pure-Python workload (host info only)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    assert acc > 0
    return time.perf_counter() - t0


def hostclock():
    """``perfbench/hostclock.py``, the module of both clocks.

    Loaded here, not at import, because perfbench's host record imports
    :func:`calibrate` from this module and must not load the clock.
    """
    path = os.path.join(ROOT, "perfbench", "hostclock.py")
    spec = importlib.util.spec_from_file_location("hostclock", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _measure(clock, fn: Callable[[], Any], runs: int) -> Tuple[Any, float]:
    """``fn``'s result and its seconds on ``clock``: the median over
    ``runs`` measurements of the best of :data:`SAMPLES` calls."""
    bests = []
    for _ in range(runs):
        best = float("inf")
        for _ in range(SAMPLES):
            result, _, secs = clock.time(fn)
            best = min(best, secs)
        bests.append(best)
    return result, statistics.median(bests)


def _digest(task_lists: List[List[int]]) -> str:
    return hashlib.sha256(json.dumps(task_lists).encode()).hexdigest()


def bench_hfp_pack(clock, runs: int, n: int = 48) -> Dict[str, Any]:
    """Time of ``hfp_pack`` on the fig3 matmul workload."""
    from repro.experiments.harness import figure_spec
    from repro.schedulers.hfp import hfp_pack

    spec = figure_spec("fig3")
    graph = spec.workload(n)
    platform = spec.platform()
    memory = min(g.memory_bytes for g in platform.gpus)
    packages, secs = _measure(
        clock, lambda: hfp_pack(graph, memory, platform.n_gpus), runs
    )
    return {
        "n": n,
        "tasks": graph.n_tasks,
        "pack_s": round(secs, 4),
        "packages": len(packages),
        "packages_sha256": _digest(packages),
    }


def bench_partition(clock, runs: int, n: int = 50, k: int = 4) -> Dict[str, Any]:
    """Time of ``partition_tasks`` on the fig8 workload."""
    import random

    from repro.experiments.harness import figure_spec
    from repro.partitioning.interface import partition_tasks

    graph = figure_spec("fig8").workload(n)
    parts, secs = _measure(
        clock,
        lambda: partition_tasks(graph, k, rng=random.Random(0)).parts,
        runs,
    )
    return {
        "n": n,
        "k": k,
        "tasks": graph.n_tasks,
        "partition_s": round(secs, 4),
        "parts_sha256": _digest(parts),
    }


def bench_e2e(clock, quick: bool) -> Dict[str, Any]:
    """Every cell's steady seconds per ``run_cell`` call.

    A measurement of a cell is its best sample over :data:`SAMPLES`
    passes through all cells; a full run records the median of
    :data:`RECORD_RUNS` measurements.
    """
    from repro.experiments.harness import figure_spec, run_cell

    groups = {GATED: E2E_CELLS[GATED]} if quick else E2E_CELLS
    runs = 1 if quick else RECORD_RUNS
    instances = {}
    for key in groups:
        fid, n = key.split(":")
        spec = figure_spec(fid)
        # the graph is built once; cell timing excludes generation
        instances[key] = (spec, int(n), spec.workload(int(n)))
    best = {
        (key, s): [float("inf")] * runs
        for key, schedulers in groups.items()
        for s in schedulers
    }
    for run in range(runs):
        for sample in range(SAMPLES):
            print(f"  run {run + 1}/{runs}, pass {sample + 1}/{SAMPLES}", flush=True)
            for key, scheduler in best:
                spec, n, graph = instances[key]
                _, _, secs = clock.time(
                    lambda: [
                        run_cell(spec, n, scheduler, 0, graph=graph)
                        for _ in range(SAMPLE_CALLS)
                    ]
                )
                best[key, scheduler][run] = min(
                    best[key, scheduler][run], secs / SAMPLE_CALLS
                )
    return {
        key: {
            "cells": {
                s: {"seconds": round(statistics.median(best[key, s]), 4)}
                for s in schedulers
            }
        }
        for key, schedulers in groups.items()
    }


def bench_sweeps(clock, quick: bool) -> Dict[str, Any]:
    """One figure sweep per mode of ``run_sweep``; outputs must agree."""
    from repro.experiments.cache import ResultCache
    from repro.experiments.harness import (
        enumerate_cells,
        figure_spec,
        run_sweep,
    )

    out: Dict[str, Any] = {}
    for fid, points in (SWEEP_POINTS_QUICK if quick else SWEEP_POINTS).items():
        print(f"  sweeps {fid} (points={points}) ...", flush=True)
        spec = figure_spec(fid, scale="small", points=points)
        serial, _, serial_s = clock.time(lambda: run_sweep(spec, jobs=1))
        pool, _, pool_s = clock.time(lambda: run_sweep(spec, jobs=POOL_JOBS))
        with tempfile.TemporaryDirectory(prefix="bench-core-cache-") as tmp:
            _, _, cold_s = clock.time(
                lambda: run_sweep(spec, jobs=POOL_JOBS, cache=ResultCache(tmp))
            )
            warm_cache = ResultCache(tmp)
            warm, _, warm_s = clock.time(
                lambda: run_sweep(spec, jobs=POOL_JOBS, cache=warm_cache)
            )
        outputs = {
            json.dumps(sweep.deterministic_dict())
            for sweep in (serial, pool, warm)
        }
        out[fid] = {
            "points": len(spec.ns),
            "cells": len(enumerate_cells(spec)),
            "serial_s": round(serial_s, 4),
            "pool_s": round(pool_s, 4),
            "cache_cold_s": round(cold_s, 4),
            "cache_warm_s": round(warm_s, 4),
            "warm_run_all_hits": warm_cache.misses == 0,
            "identical_deterministic_output": len(outputs) == 1,
        }
    return out


def run_benchmarks(quick: bool) -> Dict[str, Any]:
    from repro.experiments.harness import usable_cpus

    report: Dict[str, Any] = {
        "benchmark": "simulator-host-time",
        "schema": 2,
        "created_unix": round(time.time(), 3),
        "host": {
            "python": _platform.python_version(),
            "platform": _platform.platform(),
            "cpu_count": os.cpu_count(),
            "usable_cpus": usable_cpus(),
            "calibration_s": round(calibrate(), 4),
        },
        "quick": quick,
        "clock": "perfbench/hostclock.py: steady seconds, "
        "sweeps in host seconds",
        "sample": {
            "calls": SAMPLE_CALLS,
            "best_of": SAMPLES,
            "median_of_runs": 1 if quick else RECORD_RUNS,
            "pool_jobs": POOL_JOBS,
        },
    }
    clocks = hostclock()
    runs = 1 if quick else RECORD_RUNS
    with clocks.SteadyClock() as clock:
        report["hfp_pack"] = bench_hfp_pack(clock, runs)
        report["partition"] = bench_partition(clock, runs)
        report["e2e"] = bench_e2e(clock, quick)
    # The pool's workers slow the probe in this process, so the steady
    # clock would count the pool's own load as a slow host (fig8's
    # 2-worker sweep read 5.5x faster than serial): the sweep modes are
    # timed in plain host seconds.
    report["sweeps"] = bench_sweeps(clocks.WallClock(), quick)
    return report


def check_regression(
    report: Dict[str, Any], baseline_path: str, tolerance: float
) -> int:
    """Compare e2e and static-phase steady seconds against a previous run.

    Returns the number of cells and static phases more than
    ``tolerance`` slower than the baseline's plus the number of
    static-phase digests that differ from the baseline's.
    """
    with open(baseline_path) as fh:
        old = json.load(fh)
    failures = 0
    for key, data in report["e2e"].items():
        old_cells = old.get("e2e", {}).get(key, {}).get("cells", {})
        for scheduler, stats in data["cells"].items():
            if scheduler not in old_cells:
                continue
            ratio = stats["seconds"] / old_cells[scheduler]["seconds"]
            status = "ok"
            if ratio > 1.0 + tolerance:
                status = "REGRESSED"
                failures += 1
            print(f"  check {key} {scheduler}: x{ratio:.2f} [{status}]")
    for group, seconds, digest in STATIC_PHASES:
        old_phase = old.get(group, {})
        if seconds in old_phase:
            ratio = report[group][seconds] / old_phase[seconds]
            status = "ok"
            if ratio > 1.0 + tolerance:
                status = "REGRESSED"
                failures += 1
            print(f"  check {group}.{seconds}: x{ratio:.2f} [{status}]")
        status = "ok"
        if report[group][digest] != old_phase.get(digest):
            status = "CHANGED"
            failures += 1
        print(f"  check {group}.{digest}: [{status}]")
    return failures


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="gated fig3 cells once and truncated sweeps (CI perf smoke)",
    )
    parser.add_argument(
        "--out",
        help=f"output JSON path (default: {DEFAULT_OUT} for a full run, "
        "none for --quick)",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a previous BENCH_core.json; non-zero exit "
        "on an e2e or static-phase slowdown beyond --tolerance or a "
        "changed static-phase digest",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown for --check (default 0.25)",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.quick)
    print(
        f"hfp_pack(n={report['hfp_pack']['n']}): "
        f"{report['hfp_pack']['pack_s']:.3f}s | "
        f"partition(n={report['partition']['n']}): "
        f"{report['partition']['partition_s']:.3f}s"
    )
    for key, data in report["e2e"].items():
        total = sum(c["seconds"] for c in data["cells"].values())
        print(f"{key}: {total:.2f}s for one call of each cell")
    for fid, s in report["sweeps"].items():
        print(
            f"{fid} sweep: serial {s['serial_s']:.2f}s | pool "
            f"{s['pool_s']:.2f}s | cache cold {s['cache_cold_s']:.2f}s, "
            f"warm {s['cache_warm_s']:.3f}s | identical="
            f"{s['identical_deterministic_output']}"
        )

    out = args.out or (None if args.quick else DEFAULT_OUT)
    failures = 0
    if args.check:
        failures = check_regression(report, args.check, args.tolerance)
    if out is not None:
        if os.path.exists(out):
            with open(out) as fh:
                old = json.load(fh)
            report.update({k: old[k] for k in HISTORY if k in old})
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {out}")

    if not all(
        s["identical_deterministic_output"] for s in report["sweeps"].values()
    ):
        print("ERROR: sweep modes disagree", file=sys.stderr)
        return 1
    if failures:
        print(
            f"ERROR: {failures} check(s) failed: a cell or static phase "
            f"regressed beyond {args.tolerance:.0%} or a static-phase "
            "output changed",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
