"""``python -m repro.check`` — lint the tree, then sanitize smoke runs.

Two stages, both gating the exit code:

1. the static determinism/API linter over ``src/`` (or the paths given);
2. sanitized smoke simulations of the paper's five scheduling
   strategies (EAGER, DMDA, DMDAR, mHFP, hMETIS+R — plus DARTS+LUF for
   the paper's contribution) on a small matmul instance, and of DARTS's
   two 3inputs variants on a small Cholesky task set, each run twice to
   verify the same-seed trace-digest contract (SAN007).

Exit status 0 means: no lint violations, no sanitizer violations, and
bit-identical double runs for every scheduler.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.check.lint.framework import LintViolation, Linter, all_rules
from repro.check.lint.reporters import json_report, text_report

#: the five strategies of the paper's evaluation plus the DARTS+LUF
#: contribution; every one is smoke-simulated under the sanitizer
SMOKE_SCHEDULERS: Sequence[str] = (
    "eager",
    "dmda",
    "dmdar",
    "mhfp",
    "hmetis+r",
    "darts+luf",
)

#: DARTS's variants for tasks with three inputs, smoke-simulated on the
#: Cholesky task set: matmul2d's tasks read two data, so neither the
#: two-loads fallback nor OPTI's early exit ever runs there
THREE_INPUT_SMOKE_SCHEDULERS: Sequence[str] = (
    "darts+luf-3inputs",
    "darts+luf+opti-3inputs",
)

ALL_SMOKE_SCHEDULERS = (*SMOKE_SCHEDULERS, *THREE_INPUT_SMOKE_SCHEDULERS)


def _smoke_cases(n_gpus: int) -> Iterator[Tuple[str, Any, Any]]:
    """``(scheduler, graph, platform)`` of every smoke run, in
    ``ALL_SMOKE_SCHEDULERS`` order.

    Each GPU holds 8 blocks, of matmul2d(6)'s 12 and cholesky_tasks(6)'s
    21: small enough to force evictions (exercising SAN001/SAN003/SAN006)
    on a seconds-long smoke run.
    """
    from repro.platform.spec import tesla_v100_node
    from repro.workloads.cholesky import cholesky_tasks
    from repro.workloads.matmul2d import matmul2d

    for graph, names in (
        (matmul2d(6), SMOKE_SCHEDULERS),
        (cholesky_tasks(6), THREE_INPUT_SMOKE_SCHEDULERS),
    ):
        block = graph.data[0].size
        platform = tesla_v100_node(n_gpus=n_gpus, memory_bytes=8 * block)
        for name in names:
            yield name, graph, platform


def _default_lint_root() -> Optional[Path]:
    """The installed ``repro`` package directory (linting its source)."""
    import repro

    pkg = Path(repro.__file__).resolve().parent
    return pkg if pkg.is_dir() else None


def run_lint(
    paths: Sequence[Path], rules: Optional[Sequence[str]] = None
) -> List[LintViolation]:
    """Lint ``paths``; returns the violation list."""
    selected = all_rules()
    if rules:
        wanted = {r.strip().upper() for r in rules}
        unknown = wanted - {r.code for r in selected}
        if unknown:
            raise SystemExit(f"unknown rule code(s): {sorted(unknown)}")
        selected = [r for r in selected if r.code in wanted]
    return Linter(selected).lint_paths(paths)


def run_smoke(verbose: bool = False) -> List[str]:
    """Sanitized double-run smoke simulations; returns problem strings."""
    from repro.simulator.sanitizer import Sanitizer, check_determinism

    problems: List[str] = []
    for name, graph, platform in _smoke_cases(n_gpus=2):
        collector = Sanitizer(strict=False)
        try:
            digest = check_determinism(
                graph, platform, name, seed=0, sanitizer=collector
            )
        except Exception as exc:  # sanitizer raise or simulation bug
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        for v in collector.violations:
            problems.append(f"{name}: {v.format()}")
        if verbose and not collector.violations:
            print(f"  smoke {name:22s} ok  digest={digest[:16]}…")
    return problems


def run_fault_smoke(verbose: bool = False) -> List[str]:
    """Fault-injection smoke: every strategy survives a pinned fault plan.

    For each smoke scheduler, a fault-free baseline fixes the makespan;
    a plan then kills GPU 1 at ~30% of that makespan, corrupts transfers
    with probability 0.2, and slows GPU 0 by 1.5×.  The faulted run must
    (a) be reproducible (same plan ⇒ same SAN007 digest, via
    ``check_determinism``) and (b) pass the recovery sanitizer checks
    SAN008 (exactly-once completion), SAN009 (no fetch from a failed
    device), SAN010 (degraded makespan within surviving capacity).
    """
    from repro.simulator.faults import (
        DeviceFailure,
        FaultPlan,
        StragglerSlowdown,
        TransferCorruption,
    )
    from repro.simulator.runtime import simulate
    from repro.simulator.sanitizer import Sanitizer, check_determinism
    from repro.schedulers.registry import make_scheduler

    problems: List[str] = []
    for name, graph, platform in _smoke_cases(n_gpus=3):
        try:
            sched, eviction = make_scheduler(name)
            base = simulate(graph, platform, sched, eviction=eviction, seed=0)
            plan = FaultPlan(
                seed=11,
                device_failures=(
                    DeviceFailure(gpu=1, time=0.3 * base.makespan),
                ),
                transfer_faults=TransferCorruption(probability=0.2),
                stragglers=(StragglerSlowdown(gpu=0, factor=1.5),),
            )
            collector = Sanitizer(strict=False)
            digest = check_determinism(
                graph, platform, name, seed=0,
                sanitizer=collector, faults=plan,
            )
        except Exception as exc:  # sanitizer raise or recovery bug
            problems.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        for v in collector.violations:
            problems.append(f"{name}: {v.format()}")
        if verbose and not collector.violations:
            print(f"  fault-smoke {name:22s} ok  digest={digest[:16]}…")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.check",
        description="Determinism linter + simulation sanitizer smoke runs.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the lint report as JSON"
    )
    parser.add_argument(
        "--no-smoke",
        action="store_true",
        help="skip the sanitized smoke simulations (lint only)",
    )
    parser.add_argument(
        "--fault-smoke",
        action="store_true",
        help="additionally smoke-run every strategy under a pinned "
        "fault-injection plan (device failure + transfer corruption + "
        "straggler) with the recovery sanitizer checks enabled",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print smoke-run progress"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:22s} {rule.description}")
        return 0

    paths = list(args.paths)
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"error: no such file or directory: {p}", file=sys.stderr)
        return 2
    if not paths:
        root = _default_lint_root()
        if root is None:
            print("cannot locate the repro package to lint", file=sys.stderr)
            return 2
        paths = [root]

    rules = args.rules.split(",") if args.rules else None
    violations: List[LintViolation] = run_lint(paths, rules)
    if args.json:
        print(json_report(violations))
    else:
        print(text_report(violations))

    smoke_problems: List[str] = []
    if not args.no_smoke:
        if not args.json:
            print("running sanitized smoke simulations "
                  f"({', '.join(ALL_SMOKE_SCHEDULERS)}) ...")
        smoke_problems = run_smoke(verbose=args.verbose)
        for p in smoke_problems:
            print(f"smoke: {p}", file=sys.stderr)
        if not args.json:
            n = len(ALL_SMOKE_SCHEDULERS)
            ok = n - len({p.split(":", 1)[0] for p in smoke_problems})
            print(f"repro.check smoke: {ok}/{n} schedulers clean")

    fault_problems: List[str] = []
    if args.fault_smoke:
        if not args.json:
            print("running fault-injection smoke simulations "
                  f"({', '.join(ALL_SMOKE_SCHEDULERS)}) ...")
        fault_problems = run_fault_smoke(verbose=args.verbose)
        for p in fault_problems:
            print(f"fault-smoke: {p}", file=sys.stderr)
        if not args.json:
            n = len(ALL_SMOKE_SCHEDULERS)
            ok = n - len({p.split(":", 1)[0] for p in fault_problems})
            print(f"repro.check fault-smoke: {ok}/{n} schedulers clean")

    return 1 if (violations or smoke_problems or fault_problems) else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
