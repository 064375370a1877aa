"""Process-pool sweep executor with a deterministic merge.

The cells of a sweep — one ``(n, scheduler, repetition)`` simulation
each — are mutually independent, like the independent work items
Celerity runs on concurrent queues or the independent DAG branches
GrCUDA overlaps.  :func:`run_sweep_parallel` fans them out across
worker processes and merges the results back by delegating assembly to
:func:`repro.experiments.harness.run_sweep` with a lookup-table cell
runner, so the output is byte-identical to the serial path regardless
of worker count or completion order.

Workers are forked (POSIX): the parent parks the spec and the built
instances in module globals before creating the pool, and children
inherit them through the fork, so specs whose ``workload``/``platform``
factories are lambdas (most figure configs) need never be pickled.
Only cell indices cross the pipe one way and ``Measurement`` dataclasses
the other.  Where fork is unavailable the executor transparently falls
back to in-process serial computation — same results, no speedup.

Determinism contract: every simulation-derived quantity (throughput,
transfers, loads, evictions, makespan, balance, series order) is
bit-identical to the serial sweep for any worker count — compare with
``Sweep.deterministic_dict()``.  The two wall-clock fields
(``Measurement.WALL_CLOCK_FIELDS``: static scheduling time and the
throughput charged with it) are *host measurements* and jitter between
any two runs, serial or parallel, exactly as they did in the serial-only
harness; serving cells from a shared :class:`ResultCache` freezes them
too, making warm reruns byte-identical end to end.

A :class:`repro.experiments.cache.ResultCache` plugs in before the
fan-out: cached cells are looked up first and only the misses are
simulated (then stored), so a warm rerun performs zero simulations.

Fault tolerance: the pool survives killed workers (``BrokenProcessPool``
— e.g. the OOM killer taking out one child mid-sweep) and wedged cells
(a per-cell wall-clock timeout).  Affected cells are retried with a
capped exponential backoff; a cell that keeps failing after
``max_attempts`` rounds is *excluded* — reported in the merge footer and
skipped by the assembly (`run_sweep` averages the repetitions that did
complete and drops the point entirely when none did).  Only cleanly
completed cells are ever written to the cache, so a crash can never
poison future warm runs.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from repro.core.problem import TaskGraph
from repro.experiments.cache import ResultCache
from repro.experiments.harness import (
    SweepSpec,
    figure_spec,
    run_cell,
    run_sweep,
)
from repro.metrics.collect import Measurement, Sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.faults import FaultPlan


class Cell(NamedTuple):
    """One independent unit of sweep work."""

    n: int
    scheduler: str
    rep: int


class ExcludedCell(NamedTuple):
    """A cell dropped from the merge after exhausting its retry budget."""

    cell: Cell
    attempts: int
    error: str


def enumerate_cells(spec: SweepSpec) -> List[Cell]:
    """All ``(n, scheduler, repetition)`` cells, in serial sweep order."""
    return [
        Cell(n, name, rep)
        for n in spec.ns
        for name in spec.schedulers
        for rep in range(max(1, spec.repetitions))
    ]


def default_jobs() -> int:
    """Worker count when ``--jobs`` is not given: all usable CPUs."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# fork-shared state: set in the parent immediately before the pool is
# created, inherited by the workers through the fork, cleared after
# ----------------------------------------------------------------------
_FORK_SPEC: Optional[SweepSpec] = None
_FORK_CELLS: List[Cell] = []
_FORK_GRAPHS: Dict[int, TaskGraph] = {}


def _run_indexed_cell(i: int) -> Tuple[int, Measurement]:
    """Worker entry point: compute cell ``i`` of the parked work list."""
    assert _FORK_SPEC is not None, "worker forked without a parked spec"
    cell = _FORK_CELLS[i]
    return i, run_cell(
        _FORK_SPEC,
        cell.n,
        cell.scheduler,
        cell.rep,
        graph=_FORK_GRAPHS.get(cell.n),
    )


def _teardown_pool(pool: ProcessPoolExecutor) -> None:
    """Abandon a wedged/broken pool without waiting on its workers."""
    # shutdown() drops the pool's process dict, so take the workers first
    procs = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.terminate()
        except Exception:  # pragma: no cover - best effort
            pass


def _compute_pool(
    spec: SweepSpec,
    cells: List[Cell],
    graphs: Dict[int, TaskGraph],
    jobs: int,
    cell_timeout: float = 600.0,
    max_attempts: int = 3,
    retry_backoff: float = 0.5,
) -> Tuple[Dict[Cell, Measurement], List[ExcludedCell]]:
    """Run ``cells`` across a process pool, surviving crashes and hangs.

    Each round submits every still-pending cell to a fresh pool.  A cell
    whose future raises (worker exception), whose pool breaks under it
    (killed worker), or that exceeds ``cell_timeout`` of wall clock is
    charged one failed attempt and retried next round after a capped
    exponential backoff; cells untouched by the abort keep their attempt
    budget.  After ``max_attempts`` failures a cell is excluded and
    reported instead of aborting the sweep.
    """
    global _FORK_SPEC, _FORK_CELLS, _FORK_GRAPHS
    ctx = multiprocessing.get_context("fork")
    results: Dict[Cell, Measurement] = {}
    attempts = [0] * len(cells)
    errors: Dict[int, str] = {}
    excluded: List[ExcludedCell] = []
    # Largest instances dominate the wall clock; dispatch them first so
    # the tail of the schedule is short cells, not one straggler.
    pending = sorted(range(len(cells)), key=lambda i: (-cells[i].n, i))
    _FORK_SPEC, _FORK_CELLS, _FORK_GRAPHS = spec, list(cells), graphs
    try:
        round_no = 0
        while pending:
            round_no += 1
            if round_no > 1:
                time.sleep(min(retry_backoff * 2 ** (round_no - 2), 5.0))
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, len(pending)), mp_context=ctx
            )
            futures = [(i, pool.submit(_run_indexed_cell, i)) for i in pending]
            done: List[int] = []
            failed: List[int] = []
            aborted = False
            try:
                for i, fut in futures:
                    if aborted:
                        break
                    try:
                        idx, m = fut.result(timeout=cell_timeout)
                        results[cells[idx]] = m
                        done.append(idx)
                    except FutureTimeout:
                        errors[i] = (
                            f"no result within {cell_timeout:.0f}s wall clock"
                        )
                        failed.append(i)
                        aborted = True  # pool is wedged; rebuild it
                    except BrokenProcessPool:
                        errors[i] = "worker process died (pool broken)"
                        failed.append(i)
                        aborted = True  # pool is unusable; rebuild it
                    except Exception as exc:
                        errors[i] = f"{type(exc).__name__}: {exc}"
                        failed.append(i)
            finally:
                if aborted:
                    _teardown_pool(pool)
                else:
                    pool.shutdown(wait=True)
            survivors: List[int] = []
            for i in failed:
                attempts[i] += 1
                if attempts[i] >= max_attempts:
                    excluded.append(
                        ExcludedCell(cells[i], attempts[i], errors[i])
                    )
                else:
                    survivors.append(i)
            finished = set(done)
            blamed = set(failed)
            # Cells neither finished nor blamed were innocent bystanders
            # of an aborted round: they retry without losing budget.
            pending = survivors + [
                i for i in pending if i not in finished and i not in blamed
            ]
            pending.sort(key=lambda i: (-cells[i].n, i))
        return results, excluded
    finally:
        _FORK_SPEC, _FORK_CELLS, _FORK_GRAPHS = None, [], {}


def _compute_serial(
    spec: SweepSpec,
    cells: List[Cell],
    graphs: Dict[int, TaskGraph],
    max_attempts: int = 3,
    retry_backoff: float = 0.5,
) -> Tuple[Dict[Cell, Measurement], List[ExcludedCell]]:
    """In-process fallback with the same retry/exclusion semantics."""
    results: Dict[Cell, Measurement] = {}
    excluded: List[ExcludedCell] = []
    for cell in cells:
        last = ""
        for attempt in range(1, max_attempts + 1):
            if attempt > 1:
                time.sleep(min(retry_backoff * 2 ** (attempt - 2), 5.0))
            try:
                results[cell] = run_cell(
                    spec, cell.n, cell.scheduler, cell.rep,
                    graph=graphs[cell.n],
                )
                break
            except Exception as exc:
                last = f"{type(exc).__name__}: {exc}"
        else:
            excluded.append(ExcludedCell(cell, max_attempts, last))
    return results, excluded


def run_sweep_parallel(
    spec: SweepSpec,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    verbose: bool = False,
    cell_timeout: float = 600.0,
    max_attempts: int = 3,
    retry_backoff: float = 0.5,
) -> Sweep:
    """Execute ``spec`` across ``jobs`` workers, reusing cached cells.

    Produces exactly the :class:`Sweep` of ``run_sweep(spec)`` — same
    series, same values, same order — for every ``jobs`` value.  Cells
    that crash or hang are retried up to ``max_attempts`` times (capped
    exponential backoff starting at ``retry_backoff`` seconds, per-cell
    wall-clock budget ``cell_timeout``); persistent failures are excluded
    from the merge and reported in a footer instead of aborting.  Only
    cleanly completed cells are written to ``cache``.
    """
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    cells = enumerate_cells(spec)
    graphs = {n: spec.workload(n) for n in spec.ns}

    results: Dict[Cell, Measurement] = {}
    missing: List[Cell] = []
    keys: Dict[Cell, str] = {}
    if cache is not None:
        for cell in cells:
            keys[cell] = cache.key_for(
                spec, cell.n, cell.scheduler, cell.rep, graph=graphs[cell.n]
            )
            hit = cache.get(keys[cell])
            if hit is not None:
                results[cell] = hit
            else:
                missing.append(cell)
    else:
        missing = list(cells)

    excluded: List[ExcludedCell] = []
    if missing:
        if jobs > 1 and len(missing) > 1 and fork_available():
            computed, excluded = _compute_pool(
                spec,
                missing,
                graphs,
                min(jobs, len(missing)),
                cell_timeout=cell_timeout,
                max_attempts=max_attempts,
                retry_backoff=retry_backoff,
            )
        else:
            computed, excluded = _compute_serial(
                spec,
                missing,
                graphs,
                max_attempts=max_attempts,
                retry_backoff=retry_backoff,
            )
        if cache is not None:
            # Excluded cells never reach `computed`, so nothing a crash
            # touched can be stored and poison a warm rerun.
            for cell, m in computed.items():
                cache.put(keys[cell], m)
        results.update(computed)

    def lookup(
        spec_: SweepSpec,
        n: int,
        name: str,
        rep: int,
        graph: Optional[TaskGraph] = None,
    ) -> Optional[Measurement]:
        return results.get(Cell(n, name, rep))

    sweep = run_sweep(spec, verbose=verbose, cell_runner=lookup)
    if excluded:
        print(
            f"  [merge: {len(excluded)} cell(s) excluded after "
            f"{max_attempts} attempt(s) each]"
        )
        for exc_cell in sorted(excluded, key=lambda e: e.cell):
            c = exc_cell.cell
            print(
                f"    n={c.n} {c.scheduler} rep={c.rep}: {exc_cell.error}"
            )
    return sweep


def run_figure_parallel(
    figure_id: str,
    scale: str = "small",
    points: Optional[int] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    verbose: bool = False,
    faults: Optional["FaultPlan"] = None,
) -> Sweep:
    """Parallel, cache-aware counterpart of ``harness.run_figure``.

    ``faults`` overlays a deterministic fault-injection plan on every
    cell of the figure's sweep (see :mod:`repro.simulator.faults`).
    """
    spec = figure_spec(figure_id, scale=scale, points=points)
    if faults is not None:
        spec = replace(spec, faults=faults)
    return run_sweep_parallel(spec, jobs=jobs, cache=cache, verbose=verbose)
