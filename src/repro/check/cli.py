"""``python -m repro.check`` — sanitized smoke simulations.

Sanitized smoke simulations of the paper's five scheduling strategies
(EAGER, DMDA, DMDAR, mHFP, hMETIS+R — plus DARTS+LUF for the paper's
contribution) on a small matmul instance, and of DARTS's two 3inputs
variants on a small Cholesky task set, each run twice to verify the
same-seed trace-digest contract (SAN007).  ``--fault-smoke`` adds the
same strategies under a pinned fault-injection plan.

Exit status 0 means: no sanitizer violations and bit-identical double
runs for every scheduler.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

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


def _run_stage(
    tag: str, what: str, run: Callable[..., List[str]], verbose: bool
) -> List[str]:
    """Run one smoke stage, print its problems and summary line."""
    print(f"running {what} simulations ({', '.join(ALL_SMOKE_SCHEDULERS)}) ...")
    problems = run(verbose=verbose)
    for p in problems:
        print(f"{tag}: {p}", file=sys.stderr)
    n = len(ALL_SMOKE_SCHEDULERS)
    ok = n - len({p.split(":", 1)[0] for p in problems})
    print(f"repro.check {tag}: {ok}/{n} schedulers clean")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.check",
        description="Sanitized smoke simulations of every scheduling "
        "strategy.",
    )
    parser.add_argument(
        "--no-smoke",
        action="store_true",
        help="skip the sanitized smoke simulations",
    )
    parser.add_argument(
        "--fault-smoke",
        action="store_true",
        help="additionally smoke-run every strategy under a pinned "
        "fault-injection plan (device failure + transfer corruption + "
        "straggler) with the recovery sanitizer checks enabled",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print smoke-run progress"
    )
    args = parser.parse_args(argv)

    problems: List[str] = []
    if not args.no_smoke:
        problems += _run_stage(
            "smoke", "sanitized smoke", run_smoke, args.verbose
        )
    if args.fault_smoke:
        problems += _run_stage(
            "fault-smoke", "fault-injection smoke", run_fault_smoke,
            args.verbose,
        )
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
