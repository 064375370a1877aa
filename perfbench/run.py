#!/usr/bin/env python3
"""Repository benchmark: host time of paper-scale sweep cells.

Run from the repository root::

    python3 perfbench/run.py --workload mm2d-4gpu --seed 0 --seconds 20 --trace 0

One run of one workload (see ``cells.py`` and ``BENCHMARK.json``):

1. *set-up* builds the workload's task graphs and platforms several
   times and reports the median (``setup_s``);
2. a *correctness pass* runs every cell once, untimed, under the model
   sanitizer (SAN001-010).  A cell fails on a sanitizer error, a
   deadlock, a completed-task count different from the graph's, or -
   later - a timed run whose deterministic ``Measurement`` fields
   differ from this pass;
3. *timed passes* run all cells serially through
   ``repro.experiments.harness.run_cell`` until ``--seconds`` is spent
   (at least two passes).  Set-up is repeated before every pass.

Host times of a plain run are *steady* seconds (``hostclock.py``): host
seconds rescaled by a speed probe sampled throughout the timed work,
because a shared host's speed drifts by up to 1.8x for seconds at a
time.  ``wall_s`` sums each cell's median over passes and ``setup_s``
is the median set-up repetition.

With ``--trace 0`` the passes are uninstrumented and the end-to-end
metrics are reported.  With ``--trace 1`` plain and traced passes
alternate, both timed in plain host seconds (a probe would land inside
the spans); a traced pass installs the span wrappers of ``layers.py``
and the per-layer metrics are reported, with ``trace.overhead`` the
ratio of traced to plain pass time.  Host time is reported unless a
metric's name starts with ``sim_``: those are modelled values,
deterministic for a seed, except that ``sim_gflops_with_sched`` charges
the static phase in steady seconds.

``--seed`` feeds ``SweepSpec.seed``, from which every cell derives its
simulation seed.  The last line of standard output is the JSON result;
the host record, the seed and per-pass detail go to
``perfbench/out/result-*.json``, and a traced run's spans to
``perfbench/out/spans-*.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

#: set-up repetitions before the first pass and before every later one;
#: spreading them over the run lets their median (``setup_s``) see the
#: host's speed changes instead of one stretch of it
SETUP_REPS_FIRST = 3
SETUP_REPS_PER_PASS = 2
#: timed passes per run at least (rounds of plain + traced when tracing)
MIN_PASSES = 2
MIN_TRACED_ROUNDS = 1
#: spans kept per cell in the span file (all spans count in the totals)
SPANS_KEPT_PER_CELL = 10_000


def _import_repro() -> None:
    """Put this checkout's ``src`` first on the path, or refuse to run."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no repro package under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _host_record() -> Dict[str, object]:
    sys.path.append(ROOT)
    from benchmarks.bench_core import calibrate

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "calibration_s": round(calibrate(), 4),
    }


def _geomean(values: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


class Tally:
    """Cell executions attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, cell, reason: str) -> None:
        self.failed += 1
        print(f"FAILED {cell.label}: {reason}", file=sys.stderr)


def setup(cells, reps: int, clock) -> Tuple[list, List[float]]:
    """Build each distinct graph and every platform; steady seconds per rep."""

    def build() -> list:
        built = {}
        graphs = []
        for cell in cells:
            key = (cell.spec.workload, cell.n)
            if key not in built:
                built[key] = cell.spec.workload(cell.n)
            graphs.append(built[key])
            cell.spec.platform()
        return graphs

    times: List[float] = []
    for _ in range(reps):
        graphs, _, steady = clock.time(build)
        times.append(steady)
    return graphs, times


def correctness_pass(cells, graphs, tally: Tally) -> list:
    """Run every cell once under the sanitizer; ``None`` marks a failure.

    Builds the kernel exactly as ``run_cell`` does, so the deterministic
    fields of its ``Measurement`` must equal those of every timed run.
    """
    from repro.experiments.harness import effective_threshold, rep_seed
    from repro.metrics.collect import Measurement
    from repro.schedulers.registry import make_scheduler
    from repro.simulator.runtime import Runtime

    refs = []
    for cell, graph in zip(cells, graphs):
        tally.attempted += 1
        spec = cell.spec
        try:
            sched, eviction = make_scheduler(
                cell.scheduler, threshold=effective_threshold(spec, cell.scheduler)
            )
            rt = Runtime(
                graph,
                spec.platform(),
                sched,
                eviction=eviction,
                window=spec.window,
                seed=rep_seed(spec.seed, cell.scheduler, cell.n, cell.rep),
                faults=spec.faults,
                sanitize=True,
            )
            result = rt.run()
        except Exception:  # a failed cell is reported, the others still run
            tally.fail(cell, traceback.format_exc())
            refs.append(None)
            continue
        done = sum(g.n_tasks for g in result.gpus)
        if done != graph.n_tasks:
            tally.fail(cell, f"{done} tasks completed, graph has {graph.n_tasks}")
            refs.append(None)
            continue
        measurement = Measurement.from_result(
            result, n=cell.n, working_set_mb=graph.working_set_bytes / 1e6
        )
        refs.append((result, rt.engine.events_fired, measurement.deterministic_dict()))
    return refs


def timed_pass(cells, graphs, refs, tally: Tally, clock, totals=None):
    """One serial pass over the cells that passed the correctness pass.

    Returns ``{cell index: (host seconds, steady seconds, measurement)}``.
    With ``totals`` (a :class:`PassTotals`, wrappers installed) each
    cell is the root span of its own trace, folded into ``totals``.
    """
    from repro.experiments.harness import run_cell

    spans = totals.spans if totals is not None else None
    out = {}
    gc.collect()
    for i, (cell, graph, ref) in enumerate(zip(cells, graphs, refs)):
        if ref is None:
            continue
        tally.attempted += 1
        if spans is not None:
            spans.reset()
            spans.enter(0)
        try:
            m, host, steady = clock.time(
                lambda: run_cell(cell.spec, cell.n, cell.scheduler, cell.rep, graph=graph)
            )
        except Exception:  # a failed cell is reported, the others still run
            tally.fail(cell, traceback.format_exc())
            continue
        finally:
            if spans is not None:
                spans.exit()
        if m.deterministic_dict() != ref[2]:
            tally.fail(cell, "measurement differs from the correctness pass")
        out[i] = (host, steady, m)
        if totals is not None:
            if not math.isclose(sum(spans.self_s), spans.root_s, rel_tol=1e-6):
                tally.fail(cell, "layer self times do not add up to the cell's time")
            totals.add(cell)
    return out


def per_cell(passes, value) -> Dict[int, float]:
    """Per cell, the median over passes of ``value(host, steady, m)``."""
    values: Dict[int, List[float]] = {}
    for runs in passes:
        for i, run in runs.items():
            values.setdefault(i, []).append(value(*run))
    return {i: statistics.median(v) for i, v in values.items()}


def _host(host: float, steady: float, m) -> float:
    return host


def _steady_gflops_with_sched(host: float, steady: float, m) -> float:
    """``gflops_with_sched`` with the static phase at steady speed."""
    flops = m.gflops * m.makespan_s * 1e9
    prepare = flops / (m.gflops_with_sched * 1e9) - m.makespan_s
    return flops / (m.makespan_s + prepare * steady / host) / 1e9


def end_to_end(graphs, refs, passes, setup_times) -> Dict[str, float]:
    walls = per_cell(passes, lambda host, steady, m: steady)
    wall = sum(walls.values())
    results = [refs[i][0] for i in walls]
    return {
        "wall_s": wall,
        "tasks_per_s": sum(graphs[i].n_tasks for i in walls) / wall,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim_gflops": _geomean([r.gflops for r in results]),
        "sim_gflops_with_sched": _geomean(
            list(per_cell(passes, _steady_gflops_with_sched).values())
        ),
        "sim_transfers_mb": sum(r.total_mb for r in results),
    }


class PassTotals:
    """Per-layer span totals of one traced pass, summed over its cells.

    Each traced pass installs the wrappers afresh; per-layer self times
    are reported as the median over traced passes.
    """

    def __init__(self, spans) -> None:
        self.spans = spans
        self.self_s = [0.0] * len(spans.layers)
        self.calls = [0] * len(spans.layers)
        self.entries: Dict[str, List[int]] = {}
        #: per cell: label, traced wall, self time by layer, kept spans
        self.cells: List[dict] = []

    def add(self, cell) -> None:
        sp = self.spans
        for i, s in enumerate(sp.self_s):
            self.self_s[i] += s
            self.calls[i] += sp.spans_per_layer[i]
        for key, (c, e) in sp.entries.items():
            tot = self.entries.setdefault(key, [0, 0])
            tot[0] += c
            tot[1] += e
        t0 = sp.root_start
        self.cells.append(
            {
                "cell": cell.label,
                "wall_s": sp.root_s,
                "self_s": dict(zip(sp.layers, sp.self_s)),
                "dropped_spans": sp.dropped,
                "spans": [
                    [sid, parent, layer, round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1)]
                    for sid, parent, layer, a, b in sp.log
                ],
            }
        )

    def layer(self, name: str) -> Tuple[float, int]:
        i = self.spans.layers.index(name)
        return self.self_s[i], self.calls[i]

    def entry(self, key: str) -> Tuple[int, int]:
        return tuple(self.entries.get(key, (0, 0)))  # type: ignore[return-value]


def per_layer(totals: PassTotals, graphs, refs) -> Dict[str, float]:
    ok = [i for i, r in enumerate(refs) if r is not None]
    results = [refs[i][0] for i in ok]
    events = sum(refs[i][1] for i in ok)
    distinct = sum(
        sum(1 for d in range(graphs[i].n_data) if graphs[i].users_of(d)) for i in ok
    )
    loads = sum(r.total_loads for r in results)
    host = sum(r.bytes_from_host for r in results)
    peer = sum(r.bytes_from_peer for r in results)
    decide, empty = totals.entry("Scheduler.next_task")
    admit, rejected = totals.entry("Prefetcher.admit")
    out = {
        "engine.events": events,
        "engine.us_per_event": 1e6 * totals.layer("engine")[0] / events,
        "events.publishes": totals.entry("EventStream.publish")[0],
        "memory.loads": loads,
        "memory.evictions": sum(r.total_evictions for r in results),
        "memory.loads_per_datum": loads / distinct,
        "eviction.victim_calls": totals.entry("EvictionPolicyProtocol.choose_victim")[0],
        "prefetch.fill_calls": totals.entry("Prefetcher.fill_buffer")[0],
        "prefetch.admit_ratio": (admit - rejected) / admit,
        "worker.start_calls": totals.entry("Worker.try_start")[0],
        "routing.transfers": totals.entry("Bus.submit")[0],
        "routing.peer_fraction": peer / (host + peer),
        "schedulers.decide.calls": decide,
        "schedulers.decide.empty_ratio": empty / decide,
        "schedulers.decide.virtual_s": sum(r.virtual_decision_time for r in results),
        "memory.calls": totals.layer("memory")[1],
        "schedulers.hooks.calls": totals.layer("schedulers.hooks")[1],
        "view.calls": totals.layer("view")[1],
    }
    for name in totals.spans.layers:
        out[f"{name}.self_s"] = totals.layer(name)[0]
    return out


def run(args) -> Tuple[dict, Tally, dict]:
    from cells import cells as workload_cells
    from hostclock import SteadyClock, WallClock
    from layers import Spans

    cells = workload_cells(args.workload, args.seed)
    tally = Tally()
    # probes would land inside spans, so a traced run times plainly
    clock = WallClock() if args.trace else SteadyClock()
    spans = Spans(keep=SPANS_KEPT_PER_CELL) if args.trace else None
    min_rounds = MIN_TRACED_ROUNDS if args.trace else MIN_PASSES
    plain: list = []
    traced: list = []
    traced_totals: List[PassTotals] = []
    with clock:
        graphs, setup_times = setup(cells, SETUP_REPS_FIRST, clock)
        refs = correctness_pass(cells, graphs, tally)
        if all(r is None for r in refs):
            raise SystemExit("perfbench: no cell passed the correctness pass")
        start = time.perf_counter()
        while True:
            round_t0 = time.perf_counter()
            if plain:
                setup_times += setup(cells, SETUP_REPS_PER_PASS, clock)[1]
            plain.append(timed_pass(cells, graphs, refs, tally, clock))
            if spans is not None:
                totals = PassTotals(spans)
                spans.install()
                try:
                    traced.append(timed_pass(cells, graphs, refs, tally, clock, totals))
                finally:
                    spans.uninstall()
                traced_totals.append(totals)
            elapsed = time.perf_counter() - start
            last_round = time.perf_counter() - round_t0
            if len(plain) >= min_rounds and elapsed + last_round > args.seconds:
                break

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cells": [
            {"cell": c.label, "tasks": g.n_tasks, "failed": r is None}
            for c, g, r in zip(cells, graphs, refs)
        ],
        "setup_s": setup_times,
        "pass_cell_host_s": [{i: r[0] for i, r in p.items()} for p in plain],
        "pass_cell_steady_s": [{i: r[1] for i, r in p.items()} for p in plain],
    }
    if spans is None:
        metrics = end_to_end(graphs, refs, plain, setup_times)
    else:
        traced_wall = sum(per_cell(traced, _host).values())
        per_pass = [per_layer(t, graphs, refs) for t in traced_totals]
        metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead"] = traced_wall / sum(per_cell(plain, _host).values())
        detail["spans"] = {
            "layers": spans.layers,
            "entry_points": sorted(spans.entries),
            "span_fields": ["id", "parent", "layer", "start_us", "end_us"],
            "cells": traced_totals[-1].cells,
        }
        detail["traced_pass_cell_host_s"] = [{i: r[0] for i, r in p.items()} for p in traced]
    return metrics, tally, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}

    _import_repro()
    host = _host_record()
    metrics, tally, detail = run(args)
    if set(metrics) != set(declared):
        raise SystemExit(
            f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
            "disagree with BENCHMARK.json"
        )

    detail.update(host=host, attempted=tally.attempted, failed=tally.failed, metrics=metrics)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = detail.pop("spans", None)
    if spans is not None:
        with open(os.path.join(OUT_DIR, f"spans-{tag}.json"), "w") as fh:
            json.dump(spans, fh)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)

    print(
        f"host: {host['platform']}, python {host['python']}, "
        f"{host['usable_cpus']} usable CPU(s), calibration {host['calibration_s']} s"
    )
    print(
        f"workload {args.workload}, seed {args.seed}: {len(detail['cells'])} cells, "
        f"{len(detail['pass_cell_host_s'])} plain passes, failure_rate "
        f"{tally.failed / tally.attempted:g} ({tally.failed}/{tally.attempted})"
    )
    for name in declared:
        print(f"  {name:32s} {metrics[name]:>16.6g} {declared[name]}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": declared[name]} for name in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
