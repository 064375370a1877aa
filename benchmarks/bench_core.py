#!/usr/bin/env python
"""Simulator-core hot-path benchmark: engine, schedulers, end-to-end cells.

Measures the layers touched by the profile-guided core optimization —

* engine     — event schedule/step throughput and cancel-heavy runs that
               exercise the lazy heap compaction,
* pack       — HFP package-merging time on the fig3 workload,
* partition  — ``partition_tasks`` time (hMETIS+R's static phase) on the
               fig8 workload,
* refill     — DARTS decision wall time (the ``_refill`` hot path) for
               one fig3 cell,
* e2e        — end-to-end wall time of every scheduler cell of the fig3
               (n=48) and fig8 (n=70) sweeps, and of the fig11 (n=26)
               DARTS 3inputs cells, via ``harness.run_cell``,

and writes the numbers to ``BENCH_core.json`` (repo root).  The
optimizations are byte-identical by construction (golden SAN007 digests,
pinned ``scheduling_time``), so the only thing this file needs to
demonstrate is wall clock.

Cross-machine comparisons use ``calibration_s`` — the time of a fixed
pure-Python loop — to normalize: ``--check OLD.json`` compares
``e2e/calibration`` ratios and fails on a >``--tolerance`` regression,
which is what the CI perf-smoke job runs against the committed file.
An ``e2e`` group recorded in a separate session stores its own
``calibration_s``, which ``--check`` uses for that group.  ``--check``
also fails when the static phases' output digests
(``hfp_pack.packages_sha256``, ``partition.parts_sha256``) differ from
the baseline's, so a speedup that changes packages or partitions does
not pass as one.

Usage::

    python benchmarks/bench_core.py [--quick] [--out PATH]
    python benchmarks/bench_core.py --quick --check BENCH_core.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform as _platform
import sys
import time
from typing import Any, Dict, List, Optional

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
    os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_core.json")
)

#: End-to-end cells per sweep group; ``--quick`` (the CI perf smoke)
#: runs the fig3 group only.
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


def calibrate() -> float:
    """Time a fixed pure-Python workload (machine-speed yardstick)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    assert acc > 0
    return time.perf_counter() - t0


def bench_engine() -> Dict[str, Any]:
    """Schedule/step throughput and a cancel-heavy compaction run."""
    from repro.simulator.engine import SimulationEngine

    n = 200_000
    eng = SimulationEngine()
    counter = [0]

    def cb() -> None:
        counter[0] += 1

    t0 = time.perf_counter()
    for i in range(n):
        eng.schedule_at(float(i % 977), cb)
    schedule_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    eng.run()
    run_s = time.perf_counter() - t0
    assert counter[0] == n

    # cancel-heavy: 90% of handles cancelled, then drain — exercises the
    # lazy compaction path (dead entries > half the heap)
    eng2 = SimulationEngine()
    handles = [eng2.schedule_at(float(i % 977), cb) for i in range(n)]
    t0 = time.perf_counter()
    for i, h in enumerate(handles):
        if i % 10:
            h.cancel()
    cancel_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    eng2.run()
    drain_s = time.perf_counter() - t0

    return {
        "events": n,
        "schedule_ops_per_s": round(n / schedule_s),
        "step_ops_per_s": round(n / run_s),
        "cancel_ops_per_s": round((n - n // 10) / cancel_s),
        "cancelled_drain_s": round(drain_s, 4),
    }


def _digest(task_lists: List[List[int]]) -> str:
    return hashlib.sha256(json.dumps(task_lists).encode()).hexdigest()


def bench_hfp_pack(n: int = 48, reps: int = 1) -> Dict[str, Any]:
    """Best-of-``reps`` time of ``hfp_pack`` on the fig3 matmul workload."""
    from repro.experiments.harness import figure_spec
    from repro.schedulers.hfp import hfp_pack

    spec = figure_spec("fig3")
    graph = spec.workload(n)
    platform = spec.platform()
    memory = min(g.memory_bytes for g in platform.gpus)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        packages = hfp_pack(graph, memory, platform.n_gpus)
        best = min(best, time.perf_counter() - t0)
    return {
        "n": n,
        "tasks": graph.n_tasks,
        "pack_s": round(best, 4),
        "packages": len(packages),
        "packages_sha256": _digest(packages),
    }


def bench_partition(n: int = 50, k: int = 4, reps: int = 1) -> Dict[str, Any]:
    """Best-of-``reps`` time of ``partition_tasks`` on the fig8 workload."""
    import random

    from repro.experiments.harness import figure_spec
    from repro.partitioning.interface import partition_tasks

    graph = figure_spec("fig8").workload(n)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        parts = partition_tasks(graph, k, rng=random.Random(0)).parts
        best = min(best, time.perf_counter() - t0)
    return {
        "n": n,
        "k": k,
        "tasks": graph.n_tasks,
        "partition_s": round(best, 4),
        "parts_sha256": _digest(parts),
    }


def bench_cell(fid: str, n: int, scheduler: str, reps: int) -> float:
    """Best-of-``reps`` wall time of one sweep cell."""
    from repro.experiments.harness import figure_spec, run_cell

    spec = figure_spec(fid)
    graph = spec.workload(n)  # build once; cell timing excludes gen
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        run_cell(spec, n, scheduler, 0, graph=graph)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_darts_decision(n: int = 48) -> Dict[str, Any]:
    """DARTS decision wall time for one fig3 cell (the refill path)."""
    from repro.experiments.harness import figure_spec, run_cell

    spec = figure_spec("fig3")
    m = run_cell(spec, n, "darts", 0)
    return {
        "n": n,
        "decision_wall_s": round(m.scheduling_time_s, 4),
        "makespan_s": m.makespan_s,
    }


def run_benchmarks(quick: bool) -> Dict[str, Any]:
    from repro.experiments.harness import usable_cpus

    cells = {"fig3:48": E2E_CELLS["fig3:48"]} if quick else E2E_CELLS
    reps = 1 if quick else 2
    static_reps = 1 if quick else 3

    report: Dict[str, Any] = {
        "benchmark": "simulator-core-hot-paths",
        "schema": 1,
        "created_unix": round(time.time(), 3),
        "host": {
            "python": _platform.python_version(),
            "platform": _platform.platform(),
            "cpu_count": os.cpu_count(),
            "usable_cpus": usable_cpus(),
        },
        "quick": quick,
        "calibration_s": round(calibrate(), 4),
        "engine": bench_engine(),
        "hfp_pack": bench_hfp_pack(reps=static_reps),
        "partition": bench_partition(reps=static_reps),
        "darts_decision": bench_darts_decision(),
        "e2e": {},
    }

    for key, schedulers in cells.items():
        fid, n_s = key.split(":")
        n = int(n_s)
        out: Dict[str, Any] = {"cells": {}}
        total = 0.0
        for scheduler in schedulers:
            print(f"  {key} {scheduler} ...", flush=True)
            secs = bench_cell(fid, n, scheduler, reps)
            total += secs
            out["cells"][scheduler] = {"seconds": round(secs, 4)}
        out["total_s"] = round(total, 4)
        report["e2e"][key] = out
    return report


#: (report group, field) of the static phases' output digests
STATIC_DIGESTS = (
    ("hfp_pack", "packages_sha256"),
    ("partition", "parts_sha256"),
)


def check_regression(
    report: Dict[str, Any], baseline_path: str, tolerance: float
) -> int:
    """Compare calibration-normalized e2e times against a previous run.

    Returns the number of regressed cells (>``tolerance`` slower after
    normalizing out machine speed) plus the number of static-phase
    digests that differ from the baseline's.
    """
    with open(baseline_path) as fh:
        old = json.load(fh)
    old_cal = old.get("calibration_s") or 1.0
    new_cal = report.get("calibration_s") or 1.0
    failures = 0
    for key, data in report["e2e"].items():
        old_group = old.get("e2e", {}).get(key, {})
        old_cells = old_group.get("cells", {})
        # a group recorded in another session carries its own yardstick
        group_cal = old_group.get("calibration_s") or old_cal
        for scheduler, stats in data["cells"].items():
            if scheduler not in old_cells:
                continue
            old_norm = old_cells[scheduler]["seconds"] / group_cal
            new_norm = stats["seconds"] / new_cal
            ratio = new_norm / old_norm if old_norm > 0 else 1.0
            status = "ok"
            if ratio > 1.0 + tolerance:
                status = "REGRESSED"
                failures += 1
            print(
                f"  check {key} {scheduler}: normalized x{ratio:.2f} "
                f"[{status}]"
            )
    for group, field in STATIC_DIGESTS:
        status = "ok"
        if report[group][field] != old.get(group, {}).get(field):
            status = "CHANGED"
            failures += 1
        print(f"  check {group}.{field}: [{status}]")
    return failures


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="fig3 cells only, single rep (CI perf smoke)",
    )
    parser.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a previous BENCH_core.json; non-zero exit "
        "on a normalized e2e regression beyond --tolerance or a changed "
        "static-phase digest",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown for --check (default 0.25)",
    )
    args = parser.parse_args(argv)

    report = run_benchmarks(args.quick)
    eng = report["engine"]
    print(
        f"engine: schedule {eng['schedule_ops_per_s']:,} ops/s | "
        f"step {eng['step_ops_per_s']:,} ops/s | "
        f"cancel {eng['cancel_ops_per_s']:,} ops/s"
    )
    print(
        f"hfp_pack(n={report['hfp_pack']['n']}): "
        f"{report['hfp_pack']['pack_s']:.3f}s | "
        f"partition(n={report['partition']['n']}): "
        f"{report['partition']['partition_s']:.3f}s | darts decision wall: "
        f"{report['darts_decision']['decision_wall_s']:.4f}s"
    )
    for key, data in report["e2e"].items():
        print(f"{key}: {data['total_s']:.2f}s")

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")

    if args.check:
        failures = check_regression(report, args.check, args.tolerance)
        if failures:
            print(
                f"ERROR: {failures} check(s) failed: a cell regressed "
                f"beyond {args.tolerance:.0%} or a static-phase output "
                "changed",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
