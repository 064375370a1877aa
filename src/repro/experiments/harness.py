"""Sweep driver: run a scheduler set across instance sizes.

Mirrors the paper's methodology (§V-A): for each working-set size, run
every strategy on the same instance and record throughput and transfer
volume; reference lines give the aggregate roofline and, for transfer
plots, the PCI-bus limit curve.

A sweep decomposes into independent *cells* — one ``(n, scheduler,
repetition)`` simulation each.  :func:`run_cell` computes a single cell
and :func:`run_sweep`, the one sweep executor, builds each instance
once, serves the cells it can from a :class:`ResultCache`, computes the
rest in-process (``jobs=1``) or on a process pool, and assembles the
figure's series in serial order.  How a cell is computed never changes
where it is merged, so every ``jobs`` value yields the same sweep.

Pool workers are forked (POSIX): the parent parks the spec and the built
instances in module globals before creating the pool, and children
inherit them through the fork, so specs whose ``workload``/``platform``
factories are lambdas (most figure configs) need never be pickled.
Only cell indices cross the pipe one way and ``Measurement`` dataclasses
the other.  Where fork is unavailable the cells run in-process.

Determinism contract: every simulation-derived quantity (throughput,
transfers, loads, evictions, makespan, balance, modelled decision time,
series order) is bit-identical for any worker count — compare with
``Sweep.deterministic_dict()``.  The wall-clock field
(``Measurement.WALL_CLOCK_FIELDS``: the throughput charged with the
static phase's host time) is a *host measurement* and jitters between
any two runs; serving cells from a shared cache freezes them too,
making warm reruns byte-identical end to end.

Failure rule, the same on both paths: a cell is a pure function of its
spec, so a retry would fail the same way.  The first failure stops the
sweep and propagates unchanged — a cell's own exception (the pool
re-raises it with the same type and message, the worker's traceback as
``__cause__``), a killed worker (``BrokenProcessPool``) or an
interrupt.  The pool's workers are terminated first.  Every cell that
completed before the failure is already in the cache, so a rerun
computes only the rest.  A simulation's own bounds
(``SimulationDeadlock``, the engine's event guard) are the only limits
on a cell; there is no wall-clock timeout.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import closing
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Generator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.bounds import pci_transfer_limit_bytes, roofline_gflops
from repro.core.problem import TaskGraph
from repro.experiments.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    code_salt,
    graph_fingerprint,
    platform_fingerprint,
)
from repro.metrics.collect import Measurement, Sweep
from repro.platform.spec import PlatformSpec
from repro.schedulers.registry import _canon, make_scheduler
from repro.simulator.faults import FaultPlan
from repro.simulator.runtime import simulate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor


@dataclass
class SweepSpec:
    """Everything needed to regenerate one figure's data."""

    title: str
    workload: Callable[[int], TaskGraph]
    ns: Sequence[int]
    platform: Callable[[], PlatformSpec]
    schedulers: Sequence[str]
    #: scheduler names additionally reported without scheduling time,
    #: e.g. ``["hmetis+r"]`` produces an extra "… no part. time" series
    no_sched_time_variants: Sequence[str] = ()
    window: int = 2
    seed: int = 0
    #: DARTS threshold applied when a scheduler name carries +threshold
    threshold: Optional[int] = None
    repetitions: int = 1
    #: deterministic fault-injection plan applied to every cell
    #: (``None`` = fault-free, byte-identical to the pre-fault harness)
    faults: Optional[FaultPlan] = None


class Cell(NamedTuple):
    """One independent unit of sweep work."""

    n: int
    scheduler: str
    rep: int


def rep_seed(base: int, scheduler: str, n: int, rep: int) -> int:
    """Deterministic seed for one sweep cell.

    Mixes the scheduler name, the instance size, and the repetition
    index into the base seed (rather than the old ``base + rep``), so
    no two cells of a sweep share a random state and repetitions differ
    even for schedulers whose only entropy source is the seed.
    """
    digest = hashlib.sha256(
        f"{base}|{_canon(scheduler)}|{n}|{rep}".encode()
    ).digest()
    return int.from_bytes(digest[:4], "big")


def effective_threshold(spec: SweepSpec, scheduler: str) -> Optional[int]:
    """The DARTS threshold actually applied to this scheduler name."""
    is_thresh = scheduler.strip().lower().endswith("+threshold")
    return spec.threshold if is_thresh else None


def cell_key(
    spec: SweepSpec,
    n: int,
    scheduler: str,
    rep: int,
    graph: Optional[TaskGraph] = None,
) -> str:
    """Content-addressed cache key of one sweep cell.

    Covers the instance's content, the platform, the canonical
    scheduler name and its effective threshold, the window, the mixed
    seed, the fault plan and the code salt (see
    :mod:`repro.experiments.cache`).  ``graph`` is the instance already
    built for this ``n`` (built from ``spec.workload`` when omitted).
    """
    if graph is None:
        graph = spec.workload(n)
    payload = {
        "format": CACHE_FORMAT_VERSION,
        "code": code_salt(),
        "graph": graph_fingerprint(graph),
        "n": n,
        "platform": platform_fingerprint(spec.platform()),
        "scheduler": _canon(scheduler),
        "threshold": effective_threshold(spec, scheduler),
        "window": spec.window,
        "seed": rep_seed(spec.seed, scheduler, n, rep),
        "faults": None if spec.faults is None else spec.faults.to_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def enumerate_cells(spec: SweepSpec) -> List[Cell]:
    """All ``(n, scheduler, repetition)`` cells, in serial sweep order."""
    return [
        Cell(n, name, rep)
        for n in spec.ns
        for name in spec.schedulers
        for rep in range(max(1, spec.repetitions))
    ]


def usable_cpus() -> int:
    """CPUs this process may run on (the CLI's default ``--jobs``)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def run_cell(
    spec: SweepSpec,
    n: int,
    scheduler: str,
    rep: int,
    graph: Optional[TaskGraph] = None,
) -> Measurement:
    """Simulate one ``(n, scheduler, repetition)`` cell of the sweep."""
    if graph is None:
        graph = spec.workload(n)
    platform = spec.platform()
    sched, eviction = make_scheduler(
        scheduler, threshold=effective_threshold(spec, scheduler)
    )
    result = simulate(
        graph,
        platform,
        sched,
        eviction=eviction,
        window=spec.window,
        seed=rep_seed(spec.seed, scheduler, n, rep),
        faults=spec.faults,
    )
    return Measurement.from_result(
        result, n=n, working_set_mb=graph.working_set_bytes / 1e6
    )


# ----------------------------------------------------------------------
# fork-shared state: set in the parent immediately before the pool is
# created, inherited by the workers through the fork, cleared after
# ----------------------------------------------------------------------
_FORK_SPEC: Optional[SweepSpec] = None
_FORK_CELLS: List[Cell] = []
_FORK_GRAPHS: Dict[int, TaskGraph] = {}


def _run_indexed_cell(i: int) -> Measurement:
    """Worker entry point: compute cell ``i`` of the parked work list."""
    assert _FORK_SPEC is not None, "worker forked without a parked spec"
    cell = _FORK_CELLS[i]
    return run_cell(
        _FORK_SPEC,
        cell.n,
        cell.scheduler,
        cell.rep,
        graph=_FORK_GRAPHS.get(cell.n),
    )


def _teardown_pool(pool: "ProcessPoolExecutor") -> None:
    """Abandon a failed pool without waiting on its workers."""
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
) -> Generator[Tuple[Cell, Measurement], None, None]:
    """Run ``cells`` on a ``jobs``-worker pool, yielding each as it finishes.

    The first failure (a cell's exception, ``BrokenProcessPool`` or an
    interrupt) terminates the workers and propagates unchanged.
    """
    # Imported here: the pool's modules add about 3 MB of resident
    # memory that in-process sweeps and single cells never use.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed

    global _FORK_SPEC, _FORK_CELLS, _FORK_GRAPHS
    _FORK_SPEC, _FORK_CELLS, _FORK_GRAPHS = spec, list(cells), graphs
    pool = ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("fork")
    )
    try:
        # Largest instances dominate the wall clock; dispatch them first
        # so the tail of the schedule is short cells, not one straggler.
        order = sorted(range(len(cells)), key=lambda i: (-cells[i].n, i))
        futures = {pool.submit(_run_indexed_cell, i): cells[i] for i in order}
        for fut in as_completed(futures):
            yield futures[fut], fut.result()
        pool.shutdown(wait=True)
    except BaseException:
        _teardown_pool(pool)
        raise
    finally:
        _FORK_SPEC, _FORK_CELLS, _FORK_GRAPHS = None, [], {}


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    verbose: bool = False,
) -> Sweep:
    """Execute the sweep and collect all series.

    Builds each instance once and looks every cell up in ``cache``
    first.  The misses run in-process when ``jobs`` is 1 (or fork is
    unavailable) and on a ``jobs``-worker pool otherwise.  Either way
    each completed cell is written to ``cache`` as it finishes, and the
    first cell that fails stops the sweep with its own exception.

    Averaging across repetitions, series insertion order, the
    no-sched-time variants, and the reference lines/curves do not depend
    on how the cells were obtained, so every ``jobs`` value and a warm
    cache reproduce the in-process sweep exactly.
    """
    cells = enumerate_cells(spec)
    graphs = {n: spec.workload(n) for n in spec.ns}

    results: Dict[Cell, Measurement] = {}
    keys: Dict[Cell, str] = {}
    if cache is not None:
        for cell in cells:
            keys[cell] = cell_key(
                spec, cell.n, cell.scheduler, cell.rep, graph=graphs[cell.n]
            )
            hit = cache.get(keys[cell])
            if hit is not None:
                results[cell] = hit
    missing = [cell for cell in cells if cell not in results]

    pairs: Generator[Tuple[Cell, Measurement], None, None]
    if jobs > 1 and len(missing) > 1 and fork_available():
        pairs = _compute_pool(spec, missing, graphs, min(jobs, len(missing)))
    else:
        pairs = (
            (c, run_cell(spec, c.n, c.scheduler, c.rep, graph=graphs[c.n]))
            for c in missing
        )
    # Each cell is stored as it completes, so a failure keeps every cell
    # finished before it; closing stops the pool if storing one fails.
    with closing(pairs):
        for cell, m in pairs:
            results[cell] = m
            if cache is not None:
                cache.put(keys[cell], m)
    return _assemble(spec, graphs, results, verbose)


def _assemble(
    spec: SweepSpec,
    graphs: Dict[int, TaskGraph],
    results: Dict[Cell, Measurement],
    verbose: bool,
) -> Sweep:
    """Merge the cells' measurements into the figure's series."""
    platform = spec.platform()
    sweep = Sweep(title=spec.title)
    sweep.reference_lines["GFlop/s max"] = roofline_gflops(
        platform.n_gpus, platform.gpus[0].gflops
    )
    variants = {_canon(s) for s in spec.no_sched_time_variants}
    pci_curve: List[float] = []

    for n in spec.ns:
        graph = graphs[n]
        pci_curve.append(
            pci_transfer_limit_bytes(
                graph,
                platform.n_gpus,
                platform.gpus[0].gflops,
                platform.bus.bandwidth,
            )
            / 1e6
        )
        for name in spec.schedulers:
            reps = [Cell(n, name, rep) for rep in range(max(1, spec.repetitions))]
            m = _average([results[c] for c in reps])
            sweep.add(m)
            if verbose:
                print(
                    f"  n={n:4d} ws={graph.working_set_bytes / 1e6:7.0f}MB "
                    f"{m.scheduler:>24s} "
                    f"{m.gflops:9.0f} GF/s  {m.transfers_mb:9.0f} MB"
                )
            if _canon(name) in variants:
                # The paper plots these twice: with the static phase's
                # wall-clock charged, and without ("no part. time").
                sweep.add(
                    replace(
                        m,
                        scheduler=f"{m.scheduler} no sched. time",
                        gflops_with_sched=m.gflops,
                    )
                )
    sweep.reference_curves["PCI bus limit (MB)"] = pci_curve
    return sweep


def _average(ms: List[Measurement]) -> Measurement:
    """Mean across repetitions (the paper averages 10 iterations)."""
    if len(ms) == 1:
        return ms[0]
    k = len(ms)
    return Measurement(
        scheduler=ms[0].scheduler,
        n=ms[0].n,
        working_set_mb=ms[0].working_set_mb,
        gflops=sum(m.gflops for m in ms) / k,
        gflops_with_sched=sum(m.gflops_with_sched for m in ms) / k,
        transfers_mb=sum(m.transfers_mb for m in ms) / k,
        loads=round(sum(m.loads for m in ms) / k),
        evictions=round(sum(m.evictions for m in ms) / k),
        makespan_s=sum(m.makespan_s for m in ms) / k,
        balance=sum(m.balance for m in ms) / k,
        virtual_decision_time_s=sum(m.virtual_decision_time_s for m in ms)
        / k,
    )


def figure_spec(
    figure_id: str, scale: str = "small", points: Optional[int] = None
) -> SweepSpec:
    """Resolve a figure id to its (possibly truncated) :class:`SweepSpec`."""
    from repro.experiments.figures import FIGURES

    try:
        config = FIGURES[figure_id]
    except KeyError:
        raise ValueError(
            f"unknown figure {figure_id!r}; known: {sorted(FIGURES)}"
        ) from None
    spec = config.spec(scale)
    if points is not None:
        spec = replace(spec, ns=spec.ns[: max(1, points)])
    return spec


def run_figure(
    figure_id: str,
    scale: str = "small",
    verbose: bool = False,
    points: Optional[int] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    faults: Optional[FaultPlan] = None,
) -> Sweep:
    """Regenerate a paper figure by id (``"fig3"`` … ``"fig13"``).

    ``points`` truncates the sweep to its first N working-set sizes;
    ``faults`` overlays a deterministic fault-injection plan on every
    cell (see :mod:`repro.simulator.faults`); ``jobs`` and ``cache`` are
    passed to :func:`run_sweep`.
    """
    spec = figure_spec(figure_id, scale=scale, points=points)
    if faults is not None:
        spec = replace(spec, faults=faults)
    return run_sweep(spec, jobs=jobs, cache=cache, verbose=verbose)
