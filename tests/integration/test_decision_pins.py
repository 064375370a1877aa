"""Pinned scheduling-decision costs: the byte-identity contract.

The hot-path optimization must not change a single scheduling decision.
``RunResult.virtual_decision_time`` — decision operations × the modeled
per-op cost, charged via ``Scheduler.charge_ops`` — is deterministic in
the seed, so its exact float value (and the makespan it shifts) pins
every decision the scheduler made.  The values below were recorded on
the fig5 sweep at the commit *before* the optimization; any drift means
a decision changed or an op was charged from a hook that must not
charge (see DESIGN.md, "Modeled cost vs implementation speed").
"""

import hashlib
import heapq
import json
import random
from types import SimpleNamespace
from unittest import mock

import pytest

from repro.dag.workloads import cholesky_dag
from repro.experiments.harness import effective_threshold, figure_spec, rep_seed
from repro.partitioning import fm
from repro.partitioning.interface import partition_tasks
from repro.platform.spec import tesla_v100_node
from repro.schedulers import hfp
from repro.schedulers.darts import Darts
from repro.schedulers.hfp import balance_packages, hfp_pack
from repro.schedulers.registry import make_scheduler
from repro.simulator.prefetch import Prefetcher
from repro.simulator.runtime import simulate
from repro.simulator.worker import Worker
from repro.workloads import matmul2d

#: (scheduler, n) -> (virtual_decision_time, makespan), fig5 spec, rep 0,
#: recorded pre-optimization.  Exact equality — these are bit pins.
PINS = {
    ("darts", 20): (0.0022758999999999935, 0.15801816796197082),
    ("darts", 48): (0.07469840000000123, 0.9263897412042957),
    ("darts+luf", 20): (0.002366799999999984, 0.14634095410850337),
    ("darts+luf", 48): (0.10666925000000106, 0.8017516865615292),
    ("mhfp", 20): (0.0005080999999999972, 0.1279115560552323),
    ("mhfp", 48): (0.012543499999999897, 0.6972883378480299),
}


#: (figure, scheduler, n) -> (virtual_decision_time, makespan), rep 0,
#: recorded before DARTS's refill scanned its free-task index instead of
#: every datum.  fig11 (the Cholesky task set, three inputs per GEMM)
#: exercises the 3inputs fallback and OPTI's early exit under memory
#: pressure; fig8 at n=60 is the smallest matmul size whose working set
#: activates the threshold (asserted below).
VARIANT_PINS = {
    ("fig11", "darts+luf-3inputs", 14): (
        0.012684299999999926,
        0.05836265994281621,
    ),
    ("fig11", "darts+luf-3inputs", 18): (
        0.048226750000000415,
        0.10895838835430616,
    ),
    ("fig11", "darts+luf+opti-3inputs", 14): (
        0.0006472999999999966,
        0.07112857479268174,
    ),
    ("fig11", "darts+luf+opti-3inputs", 18): (
        0.0041361,
        0.14750243163682294,
    ),
    ("fig8", "darts+luf+threshold", 60): (
        0.031495500000000426,
        1.052859410072463,
    ),
    # recorded before Ready popped from missing-bytes buckets and LRU
    # kept its recency order: DMDAR on long lists and on the Cholesky
    # task set, hMETIS+R with stealing, and EAGER on LRU alone
    ("fig8", "dmdar", 60): (0.013434799999998862, 1.3145085082019168),
    ("fig11", "dmdar", 26): (0.052493700000000025, 0.5867207237459002),
    ("fig8", "hmetis+r", 30): (0.0022944499999999874, 0.37713784130927835),
    ("fig11", "hmetis+r", 14): (0.0014865999999999974, 0.05923393695077893),
    ("fig8", "eager", 60): (0.000182000000000004, 4.008341876163919),
}


#: scheduler -> (virtual_decision_time, makespan) on
#: ``matmul2d(20, with_outputs=True)`` (2.06 GB working set) over
#: ``tesla_v100_node(4, memory_bytes=250e6, nvlink=True)``, seed 0,
#: recorded while output allocation still entered the held set without
#: an event and DARTS and Ready fell back to rescans on such graphs.
OUTPUT_PINS = {
    "dmdar": (0.0003031999999999959, 0.12734126190296524),
    "darts+luf": (0.004290349999999992, 0.11787491976771836),
    "darts+luf+opti-3inputs": (0.0010807499999999964, 0.16917509025880925),
    "mhfp": (0.00040764999999999785, 0.12131430755827967),
}


#: scheduler -> (virtual_decision_time, makespan) on ``cholesky_dag(14)``
#: with its dependencies over ``tesla_v100_node(4, memory_bytes=100e6)``,
#: seed 0: Ready pops under dependencies and eviction pressure (hMETIS+R
#: also steals).  Recorded before Ready popped from buckets.  The two
#: 3inputs variants run OPTI's released filter and the two-loads
#: fallback on tasks not yet released; recorded before LUF chose its
#: victim by set difference, the fallback found its flags with
#: ``bytearray.find`` and OPTI walked the kept scan order.
DAG_PINS = {
    "dmdar": (0.0019296499999999959, 0.13339082660529686),
    "hmetis+r": (0.0022615999999999943, 0.11031665379924291),
    "darts+luf-3inputs": (0.053516150000000005, 0.14681292385982694),
    "darts+luf+opti-3inputs": (0.03514185000000002, 0.14936347574695677),
}


#: (figure, n, K) -> sha256 of the JSON of the static phases' task lists,
#: recorded before FM kept one heap per vertex class and HFP left
#: over-bound pairs out of its heap.  ``PARTITION_PINS``:
#: ``partition_tasks(graph, K, rng=Random(0)).parts`` on uniform (fig8)
#: and heterogeneous (fig11, several FM classes) vertex weights; fig8
#: n=36, recorded before bisection skipped restarts that repeat an
#: earlier one, has a restart that stops below the coarsest level.
#: ``PACK_PINS``: ``balance_packages(hfp_pack(graph, memory, K))`` at the
#: figure's per-GPU memory; fig3 n=20 reaches phase 2, fig12's sparse
#: n=70 graph reaches the fold of disconnected leftovers.
PARTITION_PINS = {
    ("fig8", 30, 4): (
        "c36de00439622f504c363b9edd9ef053f6ca13d5c8cfd66336bef8dbf4aedbbd"
    ),
    ("fig8", 36, 4): (
        "74a504d38326e537c3c716c421df8ec36d90e403e66c435fb35fe7fa825271a0"
    ),
    ("fig11", 14, 4): (
        "ef7e34b8dedef97573cacd5910de0ea1bec364fd6bea6d9343d02bb99b46412e"
    ),
}
PACK_PINS = {
    ("fig3", 20, 1): (
        "6a3b1a4d9d449e72ae5ebdcc42991d24672a4b835cad563c4cbd99a0a4a0b4ce"
    ),
    ("fig5", 20, 2): (
        "104ab372b5959cc65139a43d1c12aba607b63454106804b524c9ecd2ae91729c"
    ),
    ("fig12", 70, 4): (
        "9ef509ff7b9dee65d4c1c7c93af49eb43578e7db524cca88563c6b5288941c28"
    ),
}


#: scheduler -> exact ``(Worker.try_start, Prefetcher.fill_buffer)``
#: calls on fig8 small n=40 (1 600 tasks, 4 GPUs), rep 0.  Poking every
#: GPU after every completion and write-back made (6 614, 8 214) for
#: EAGER and (6 608, 8 208) for DMDAR; ``RuntimeKernel._poke_all`` now
#: skips a GPU whose poke provably does nothing.
POKE_PINS = {
    "eager": (1844, 3444),
    "dmdar": (1838, 3438),
}

#: scheduler -> (held-set hook calls, ``users_of`` sizes summed over
#: them, tasks the hooks visit) on fig8 small n=40, rep 0.  The hooks
#: (``on_fetch_issued`` and ``on_data_evicted``) once visited every user
#: of the datum, and this test read (588, 23520, 23520) then.  They now
#: visit only the unowned pool.
HOOK_PINS = {
    "darts+luf": (588, 23520, 8066),
}


#: FM moves applied by ``partition_tasks`` on fig8 n=30 K=4, rng=Random(0)
#: (a ``PARTITION_PINS`` case).  Every pass ran to the end and read
#: 38 431 moves; a pass now stops once no later prefix can win.
FM_MOVES_PIN = 24373

#: (entries popped from the sorted run, from the heap) by ``hfp_pack`` on
#: fig3 n=20 K=1 (a ``PACK_PINS`` case).  One heap held every entry and
#: popped 12 037 of them, the sum of the two.
HFP_POPS_PIN = (7601, 4436)

def _digest(task_lists) -> str:
    return hashlib.sha256(json.dumps(task_lists).encode()).hexdigest()


class TestDecisionCostPins:
    @pytest.mark.parametrize(
        "scheduler,n", sorted(PINS), ids=lambda v: str(v)
    )
    def test_virtual_decision_time_and_makespan_bit_equal(
        self, scheduler, n
    ):
        spec = figure_spec("fig5")
        sched, eviction = make_scheduler(scheduler)
        result = simulate(
            spec.workload(n),
            spec.platform(),
            sched,
            eviction=eviction,
            window=spec.window,
            seed=rep_seed(spec.seed, scheduler, n, 0),
        )
        vdt, makespan = PINS[(scheduler, n)]
        assert result.virtual_decision_time == vdt, (
            f"{scheduler} n={n}: virtual_decision_time drifted "
            f"{result.virtual_decision_time!r} != {vdt!r} — a scheduling "
            f"decision or a charge_ops site changed"
        )
        assert result.makespan == makespan, (
            f"{scheduler} n={n}: makespan drifted "
            f"{result.makespan!r} != {makespan!r}"
        )

    @pytest.mark.parametrize(
        "figure,scheduler,n", sorted(VARIANT_PINS), ids=lambda v: str(v)
    )
    def test_darts_variant_pins_bit_equal(self, figure, scheduler, n):
        spec = figure_spec(figure)
        sched, eviction = make_scheduler(
            scheduler, threshold=effective_threshold(spec, scheduler)
        )
        result = simulate(
            spec.workload(n),
            spec.platform(),
            sched,
            eviction=eviction,
            window=spec.window,
            seed=rep_seed(spec.seed, scheduler, n, 0),
        )
        if scheduler.endswith("+threshold"):
            assert sched._threshold_active, "pin must exercise the threshold"
        assert (result.virtual_decision_time, result.makespan) == (
            VARIANT_PINS[(figure, scheduler, n)]
        ), f"{figure} {scheduler} n={n}: a decision or charge_ops site changed"

    @pytest.mark.parametrize("scheduler", sorted(OUTPUT_PINS))
    def test_output_graph_pins_bit_equal(self, scheduler):
        sched, eviction = make_scheduler(scheduler)
        result = simulate(
            matmul2d(20, with_outputs=True),
            tesla_v100_node(4, memory_bytes=250e6, nvlink=True),
            sched,
            eviction=eviction,
            seed=0,
        )
        assert (result.virtual_decision_time, result.makespan) == (
            OUTPUT_PINS[scheduler]
        ), f"outputs {scheduler}: a decision or charge_ops site changed"

    @pytest.mark.parametrize("scheduler", sorted(DAG_PINS))
    def test_dependency_dag_pins_bit_equal(self, scheduler):
        graph, deps = cholesky_dag(14)
        sched, eviction = make_scheduler(scheduler)
        result = simulate(
            graph,
            tesla_v100_node(4, memory_bytes=100e6),
            sched,
            eviction=eviction,
            dependencies=deps,
            seed=0,
        )
        assert (result.virtual_decision_time, result.makespan) == (
            DAG_PINS[scheduler]
        ), f"cholesky dag {scheduler}: a decision or charge_ops site changed"


class TestRuntimeCallPins:
    @pytest.mark.parametrize("scheduler", sorted(POKE_PINS))
    def test_pokes_per_task_exact(self, scheduler):
        """A return to poking every GPU (or any new poke) fails here."""
        spec = figure_spec("fig8", scale="small")
        sched, eviction = make_scheduler(scheduler)
        calls = {"try_start": 0, "fill_buffer": 0}
        try_start, fill_buffer = Worker.try_start, Prefetcher.fill_buffer

        def counting_try_start(self):
            calls["try_start"] += 1
            try_start(self)

        def counting_fill_buffer(self, gpu):
            calls["fill_buffer"] += 1
            fill_buffer(self, gpu)

        with mock.patch.object(
            Worker, "try_start", counting_try_start
        ), mock.patch.object(Prefetcher, "fill_buffer", counting_fill_buffer):
            result = simulate(
                spec.workload(40),
                spec.platform(),
                sched,
                eviction=eviction,
                window=spec.window,
                seed=rep_seed(spec.seed, scheduler, 40, 0),
            )
        assert sum(g.n_tasks for g in result.gpus) == 1600
        assert (calls["try_start"], calls["fill_buffer"]) == (
            POKE_PINS[scheduler]
        ), f"fig8 n=40 {scheduler}: pokes changed {calls}"


    @pytest.mark.parametrize("scheduler", sorted(HOOK_PINS))
    def test_darts_hook_visits_exact(self, scheduler):
        """A return to walking every user of a datum fails here.  A hook
        reads ``_miss_count[gpu][t]`` once per task it visits."""
        spec = figure_spec("fig8", scale="small")
        sched, eviction = make_scheduler(scheduler)
        calls, users, reads, inside = [0], [0], [0], [False]

        class CountingList(list):
            def __getitem__(self, t):
                reads[0] += inside[0]
                return list.__getitem__(self, t)

        build_index = Darts._build_index

        def counting_build_index(self):
            build_index(self)
            self._miss_count = [CountingList(mc) for mc in self._miss_count]

        def counting(hook):
            def wrapped(self, gpu, data_id):
                calls[0] += 1
                users[0] += len(self.view.graph.users_of(data_id))
                inside[0] = True
                hook(self, gpu, data_id)
                inside[0] = False

            return wrapped

        with mock.patch.object(
            Darts, "_build_index", counting_build_index
        ), mock.patch.object(
            Darts, "on_fetch_issued", counting(Darts.on_fetch_issued)
        ), mock.patch.object(
            Darts, "on_data_evicted", counting(Darts.on_data_evicted)
        ):
            simulate(
                spec.workload(40),
                spec.platform(),
                sched,
                eviction=eviction,
                window=spec.window,
                seed=rep_seed(spec.seed, scheduler, 40, 0),
            )
        assert (calls[0], users[0], reads[0]) == HOOK_PINS[scheduler], (
            f"fig8 n=40 {scheduler}: hook visits changed "
            f"{(calls[0], users[0], reads[0])}"
        )


class TestStaticPhasePins:
    @pytest.mark.parametrize(
        "figure,n,k", sorted(PARTITION_PINS), ids=lambda v: str(v)
    )
    def test_partition_parts_bit_equal(self, figure, n, k):
        graph = figure_spec(figure).workload(n)
        parts = partition_tasks(graph, k, rng=random.Random(0)).parts
        assert _digest(parts) == PARTITION_PINS[(figure, n, k)], (
            f"{figure} n={n} K={k}: the partition changed"
        )

    @pytest.mark.parametrize(
        "figure,n,k", sorted(PACK_PINS), ids=lambda v: str(v)
    )
    def test_hfp_packages_bit_equal(self, figure, n, k):
        spec = figure_spec(figure)
        graph = spec.workload(n)
        memory = min(g.memory_bytes for g in spec.platform().gpus)
        packages = balance_packages(hfp_pack(graph, memory, k), graph)
        assert _digest(packages) == PACK_PINS[(figure, n, k)], (
            f"{figure} n={n} K={k}: the packages changed"
        )

    def test_fm_moves_exact(self, monkeypatch):
        """A return to running every FM pass to the end fails here.

        Each move pops its vertex's live entry ``(-gain, v, version)``:
        the first pop in a pass of an unmoved vertex's latest version.
        Every other pop drops a stale entry."""
        moves = [0]
        latest, moved = {}, set()
        fm_pass = fm._fm_pass

        def counting_pass(*args):
            latest.clear()
            moved.clear()
            return fm_pass(*args)

        def heappop(heap):
            entry = heapq.heappop(heap)
            _, v, version = entry
            if v not in moved and latest.get(v, 0) == version:
                moved.add(v)
                moves[0] += 1
            return entry

        def heappush(heap, entry):
            latest[entry[1]] = entry[2]
            heapq.heappush(heap, entry)

        monkeypatch.setattr(fm, "_fm_pass", counting_pass)
        monkeypatch.setattr(
            fm,
            "heapq",
            SimpleNamespace(
                heapify=heapq.heapify, heappop=heappop, heappush=heappush
            ),
        )
        graph = figure_spec("fig8").workload(30)
        partition_tasks(graph, 4, rng=random.Random(0))
        assert moves[0] == FM_MOVES_PIN, f"FM moves changed: {moves[0]}"

    def test_hfp_pops_exact(self, monkeypatch):
        """A return to one heap for every entry fails here."""
        pops = {"run": 0, "heap": 0}
        pop_least = hfp._pop_least

        def counting_pop(run, heap):
            before = len(run)
            entry = pop_least(run, heap)
            pops["run" if len(run) < before else "heap"] += 1
            return entry

        monkeypatch.setattr(hfp, "_pop_least", counting_pop)
        spec = figure_spec("fig3")
        memory = min(g.memory_bytes for g in spec.platform().gpus)
        hfp_pack(spec.workload(20), memory, 1)
        assert (pops["run"], pops["heap"]) == HFP_POPS_PIN, (
            f"HFP pops changed: {pops}"
        )
