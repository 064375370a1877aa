"""Differential tests: the runtime's per-decision loops against oracles.

``RuntimeKernel._poke_all`` skips a GPU whose poke provably does
nothing (a full buffer, and the GPU executing or its head still waiting
on the inputs ``Worker.try_start`` stamped), ``Prefetcher.admit``
sums only a new task's data on top of a kept per-GPU footprint, and
DARTS's held-set hooks visit only the unowned pool.  Each is claimed to
decide exactly what the loop it replaced decided; those loops are
frozen in ``tests/properties/runtime_oracles.py`` and
``tests/properties/darts_oracles.py``.  Hypothesis
drives both over the feature cross-product the skip argument has to
survive: every scheduler, every eviction policy, produced data (whose
availability gates fetches), NVLink peer copies, windows 1-4, and fault
plans with transfer corruption, stragglers and device failures.
"""

from contextlib import nullcontext
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.problem import TaskGraph
from repro.dag.deps import DependencySet
from repro.platform.spec import BusSpec, GpuSpec, PlatformSpec
from repro.schedulers.darts import Darts
from repro.schedulers.registry import SCHEDULER_NAMES, make_scheduler
from repro.simulator.faults import (
    DeviceFailure,
    FaultPlan,
    StragglerSlowdown,
    TransferCorruption,
)
from repro.simulator.kernel import RuntimeKernel
from repro.simulator.memory import MemoryFullError
from repro.simulator.prefetch import Prefetcher
from repro.simulator.runtime import simulate
from repro.simulator.worker import Worker
from repro.workloads.randomgraph import random_bipartite

from tests.properties.darts_oracles import ALL_USERS_HOOKS
from tests.properties.runtime_oracles import admit_oracle, poke_all_oracle

EVICTIONS = ("lru", "fifo", "random", "luf")


def _output_chains(layers, width):
    """Producer chains reading one shared input, as in
    ``test_incremental_caches.output_chain_case``."""
    g = TaskGraph()
    shared = g.add_data(1.0)
    inputs = [g.add_data(1.0) for _ in range(width)]
    prev_tasks = [None] * width
    edges = []
    for _layer in range(layers):
        outputs = [g.add_data(1.0) for _ in range(width)]
        for w in range(width):
            t = g.add_task([inputs[w], shared], flops=1.0, outputs=[outputs[w]])
            if prev_tasks[w] is not None:
                edges.append((prev_tasks[w], t.id))
            prev_tasks[w] = t.id
        inputs = outputs
    return g, DependencySet(g.n_tasks, edges)


def _platform(n_gpus, memory, nvlink):
    return PlatformSpec(
        gpus=[GpuSpec(name="toy", gflops=1e-9, memory_bytes=memory)] * n_gpus,
        bus=BusSpec(bandwidth=5.0, latency=0.0, model="fifo"),
        peer_link=(
            BusSpec(bandwidth=10.0, latency=0.0, model="fair") if nvlink else None
        ),
    )


@st.composite
def runtime_case(draw):
    """Keyword arguments of one ``simulate`` call (scheduler by name)."""
    seed = draw(st.integers(0, 9999))
    outputs = draw(st.booleans())
    if outputs:
        graph, deps = _output_chains(
            draw(st.integers(1, 4)), draw(st.integers(1, 3))
        )
    else:
        heterogeneous = draw(st.booleans())
        graph = random_bipartite(
            draw(st.integers(2, 16)),
            draw(st.integers(3, 8)),
            arity=draw(st.integers(1, 3)),
            data_size=4.0 if heterogeneous else 1.0,
            task_flops=1.0,
            seed=seed,
            heterogeneous_sizes=heterogeneous,
        )
        deps = None
    sizes = [d.size for d in graph.data]
    largest = int(
        max(sum(sizes[d] for d in t.inputs + t.outputs) for t in graph.tasks)
    )
    # often tight: just above the largest footprint, fetches queue up
    # and evict the inputs of buffered tasks
    memory = draw(
        st.one_of(
            st.integers(largest, largest + 2),
            st.integers(largest, int(sum(sizes)) + 1),
        )
    )
    n_gpus = draw(st.integers(1, 4))
    transfer = draw(st.booleans())
    stragglers = draw(st.booleans())
    # the runtime refuses device failures on graphs with outputs
    fails = not outputs and n_gpus > 1 and draw(st.booleans())
    faults = FaultPlan(
        seed=seed,
        transfer_faults=TransferCorruption(probability=0.3) if transfer else None,
        stragglers=(
            (StragglerSlowdown(gpu=n_gpus - 1, factor=3.0),) if stragglers else ()
        ),
        device_failures=(
            (DeviceFailure(gpu=0, time=draw(st.floats(0.0, 1.0)) * graph.n_tasks),)
            if fails
            else ()
        ),
    )
    return dict(
        graph=graph,
        platform=_platform(n_gpus, float(memory), draw(st.booleans())),
        scheduler=draw(st.sampled_from(SCHEDULER_NAMES)),
        eviction=draw(st.sampled_from(EVICTIONS)),
        window=draw(st.integers(1, 4)),
        seed=seed,
        dependencies=deps,
        faults=faults,
    )


def _store_evicts_head_input():
    """A write-back makes a queued fetch available (``retry_pending``),
    and that fetch evicts an idle GPU's head input; only the eviction
    count shows that the write-back's poke must re-request it."""
    graph, deps = _output_chains(3, 3)
    return dict(
        graph=graph,
        platform=_platform(4, 5.0, nvlink=False),
        scheduler="hmetis+r",
        eviction="fifo",
        window=2,
        seed=1,
        dependencies=deps,
        faults=FaultPlan(seed=1, transfer_faults=TransferCorruption(0.3)),
    )


def _simulate(case):
    sched, _ = make_scheduler(case["scheduler"])
    return simulate(**{**case, "scheduler": sched}, record_trace=True)


def _outcome(result):
    return (
        result.trace_digest,
        result.executed_order,
        result.makespan,
        result.virtual_decision_time,
    )


class TestPokeSkip:
    @given(case=runtime_case())
    @example(case=_store_evicts_head_input())
    @settings(max_examples=150, deadline=None)
    def test_skipping_pokes_changes_nothing(self, case):
        """Same trace digest, executed order, makespan and decision
        charge as poking every GPU after every completion."""
        ours = _outcome(_simulate(case))
        with mock.patch.object(RuntimeKernel, "_poke_all", poke_all_oracle):
            oracle = _outcome(_simulate(case))
        assert ours == oracle


DARTS_NAMES = tuple(n for n in SCHEDULER_NAMES if n.startswith("darts"))


class TestPoolOnlyHooks:
    @given(
        case=runtime_case().flatmap(
            lambda c: st.sampled_from(DARTS_NAMES).map(
                lambda name: {**c, "scheduler": name}
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_pool_hooks_decide_as_all_users_hooks(self, case):
        """Same trace digest, executed order, makespan and decision
        charge as the hooks that walked every user of the datum."""
        ours = _outcome(_simulate(case))
        with mock.patch.multiple(Darts, **ALL_USERS_HOOKS):
            oracle = _outcome(_simulate(case))
        assert ours == oracle


def _check_footprint(kernel):
    """Every GPU's kept footprint equals the recomputed union of its
    executing and buffered tasks' data."""
    for gpu, w in enumerate(kernel.workers):
        active = list(w.buffer)
        if w.executing is not None:
            active.append(w.executing)
        counts = {}
        for t in active:
            tk = kernel.graph.tasks[t]
            for d in set(tk.inputs) | set(tk.outputs):
                counts[d] = counts.get(d, 0) + 1
        assert w.footprint == counts, (gpu, w.footprint, counts)
        assert w.footprint_bytes == sum(kernel.sizes[d] for d in counts)


class TestKeptFootprint:
    @given(case=runtime_case())
    @settings(max_examples=100, deadline=None)
    def test_admission_matches_set_union(self, case):
        """Every admission decision equals the set-union oracle's, and
        the footprint is exact before each decision, after each
        completion and after a device failure."""
        admit = Prefetcher.admit
        fail_device = RuntimeKernel._fail_device
        task_done = Worker._on_task_done
        decisions = []

        def checked_admit(self, gpu, task):
            _check_footprint(self.kernel)
            expected = admit_oracle(self.kernel, gpu, task)
            got = admit(self, gpu, task)
            assert got == expected
            decisions.append(got)
            return got

        def checked_fail_device(self, gpu):
            fail_device(self, gpu)
            _check_footprint(self)

        def checked_task_done(self, task, duration):
            task_done(self, task, duration)
            _check_footprint(self.kernel)

        with mock.patch.object(
            Prefetcher, "admit", checked_admit
        ), mock.patch.object(
            RuntimeKernel, "_fail_device", checked_fail_device
        ), mock.patch.object(
            Worker, "_on_task_done", checked_task_done
        ):
            result = _simulate(case)
        executed = sorted(t for o in result.executed_order for t in o)
        assert executed == list(range(case["graph"].n_tasks))
        assert decisions.count(True) >= case["graph"].n_tasks

    def test_staged_task_and_failure(self):
        """A tight memory stages tasks (``admit`` refuses), and a device
        failure mid-run clears the dead GPU's footprint."""
        graph = random_bipartite(
            16, 8, arity=3, data_size=1.0, task_flops=1.0, seed=3
        )
        platform = PlatformSpec(
            gpus=[GpuSpec(name="toy", gflops=1e-9, memory_bytes=4.0)] * 2,
            bus=BusSpec(bandwidth=5.0, latency=0.0, model="fifo"),
        )
        plan = FaultPlan(device_failures=(DeviceFailure(gpu=0, time=3.0),))
        refused = []
        admit = Prefetcher.admit

        def counting_admit(self, gpu, task):
            got = admit(self, gpu, task)
            refused.append(not got)
            return got

        with mock.patch.object(Prefetcher, "admit", counting_admit):
            kernel = RuntimeKernel(
                graph,
                platform,
                make_scheduler("dmdar")[0],
                window=3,
                faults=plan,
            )
            kernel.run()
        assert any(refused), "admission control must refuse some task"
        assert kernel.dead[0]
        assert kernel.workers[0].footprint == {}
        assert kernel.workers[0].footprint_bytes == 0.0
        _check_footprint(kernel)

    def test_oversized_task_raises_as_oracle(self):
        """A task that alone exceeds memory fails with the oracle's
        message."""
        g = TaskGraph()
        a = g.add_data(2.0)
        g.add_task([a], flops=1.0, outputs=[g.add_data(2.0)])
        platform = PlatformSpec(
            gpus=[GpuSpec(name="toy", gflops=1e-9, memory_bytes=3.0)],
            bus=BusSpec(bandwidth=1.0, latency=0.0, model="fifo"),
        )
        messages = []
        for patch in (nullcontext(), mock.patch.object(
            Prefetcher, "admit", lambda self, gpu, task: admit_oracle(
                self.kernel, gpu, task
            )
        )):
            with patch, pytest.raises(MemoryFullError) as info:
                simulate(g, platform, make_scheduler("eager")[0])
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "alone needs 4B" in messages[0]
