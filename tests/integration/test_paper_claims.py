"""Qualitative claims of the paper's evaluation, at reduced scale.

These are the *shape* assertions behind every figure: who wins, where the
collapses happen, and which mechanism causes them.  Absolute numbers are
platform-model-dependent; the orderings below are what the reproduction
must preserve.
"""

import pytest

from repro.core.bounds import roofline_gflops
from repro.platform.spec import tesla_v100_node
from repro.schedulers.registry import make_scheduler
from repro.simulator.runtime import simulate
from repro.workloads.cholesky import cholesky_tasks
from repro.workloads.matmul2d import matmul2d
from repro.workloads.matmul3d import matmul3d
from repro.workloads.sparse import sparse_matmul2d


def run(graph, n_gpus, name, memory=None, seed=1, **kw):
    sched, eviction = make_scheduler(name)
    platform = (
        tesla_v100_node(n_gpus)
        if memory is None
        else tesla_v100_node(n_gpus, memory_bytes=memory)
    )
    return simulate(graph, platform, sched, eviction=eviction, seed=seed, **kw)


@pytest.fixture(scope="module")
def pressured_2d():
    """n=40 on one 500 MB GPU: B (590 MB) does not fit (paper Fig 3/4)."""
    return matmul2d(40)


class TestFig3Fig4SingleGpu:
    def test_eager_collapses_to_bus_bound_plateau(self, pressured_2d):
        r = run(pressured_2d, 1, "eager")
        assert r.gflops < 0.65 * roofline_gflops(1, 13253.0)

    def test_eager_one_reload_per_task(self, pressured_2d):
        r = run(pressured_2d, 1, "eager")
        assert r.total_loads >= pressured_2d.n_tasks

    def test_dmdar_beats_eager(self, pressured_2d):
        eager = run(pressured_2d, 1, "eager")
        dmdar = run(pressured_2d, 1, "dmdar")
        assert dmdar.gflops > 1.2 * eager.gflops
        assert dmdar.total_mb < 0.5 * eager.total_mb

    def test_darts_luf_near_roofline(self, pressured_2d):
        r = run(pressured_2d, 1, "darts+luf")
        assert r.gflops > 0.95 * roofline_gflops(1, 13253.0)

    def test_luf_eviction_fixes_darts_domino_effect(self, pressured_2d):
        """Paper §V-B: DARTS under LRU suffers re-fetch cascades that
        DARTS+LUF avoids."""
        lru = run(pressured_2d, 1, "darts")
        luf = run(pressured_2d, 1, "darts+luf")
        assert luf.total_mb < lru.total_mb
        assert luf.gflops > lru.gflops

    def test_darts_luf_beats_dmdar(self, pressured_2d):
        """Paper: ~8.5 % average GFlop/s gain over DMDAR on one GPU."""
        dmdar = run(pressured_2d, 1, "dmdar")
        luf = run(pressured_2d, 1, "darts+luf")
        assert luf.gflops > 1.05 * dmdar.gflops

    def test_mhfp_good_schedule_but_heavy_scheduling_time(self, pressured_2d):
        r = run(pressured_2d, 1, "mhfp")
        assert r.gflops > 0.9 * roofline_gflops(1, 13253.0)
        # The packing cost dwarfs a dynamic scheduler's static phase.
        # Both are host time measured in this process, so host speed
        # cancels out (215-270x measured on a 2-CPU host).
        luf = run(pressured_2d, 1, "darts+luf")
        assert r.prepare_time > 10 * luf.prepare_time

    def test_unconstrained_memory_everyone_is_fine(self):
        g = matmul2d(12)  # 354 MB: both matrices fit
        for name in ("eager", "dmdar", "darts+luf"):
            r = run(g, 1, name)
            assert r.gflops > 0.85 * roofline_gflops(1, 13253.0)
            assert r.total_evictions == 0


class TestFig5Fig7MultiGpu:
    def test_darts_luf_wins_under_pressure_2gpu(self):
        g = matmul2d(40)
        dmdar = run(g, 2, "dmdar", memory=250e6)
        luf = run(g, 2, "darts+luf", memory=250e6)
        assert luf.gflops > dmdar.gflops

    def test_load_balance_across_gpus(self):
        g = matmul2d(24)
        for name in ("eager", "dmdar", "darts+luf", "mhfp", "hmetis+r"):
            r = run(g, 2, name)
            assert r.balance_ratio() < 1.35, name

    def test_transfers_scale_with_gpus(self):
        """More GPUs replicate shared data: total traffic grows."""
        g = matmul2d(24)
        one = run(g, 1, "darts+luf")
        four = run(g, 4, "darts+luf")
        assert four.total_loads >= one.total_loads

    def test_hmetis_partition_time_hurts(self):
        g = matmul2d(30)
        r = run(g, 2, "hmetis+r")
        assert r.gflops_with_scheduling < r.gflops


class TestFig9RandomizedOrder:
    def test_dmdar_degrades_more_than_darts_luf(self):
        """Probed where the paper's Fig 9 shows it: memory holds B but
        not A and B (n=25 with 2x250 MB)."""
        natural = matmul2d(25)
        shuffled = matmul2d(25, randomized=True, seed=5)
        mem = 250e6
        dm_nat = run(natural, 2, "dmdar", memory=mem)
        dm_shuf = run(shuffled, 2, "dmdar", memory=mem)
        luf_shuf = run(shuffled, 2, "darts+luf", memory=mem)
        # DMDAR leans on submission order: it loses throughput...
        assert dm_shuf.gflops < 0.85 * dm_nat.gflops
        # ...while DARTS+LUF on the shuffled order beats shuffled DMDAR
        assert luf_shuf.gflops > 1.2 * dm_shuf.gflops

    def test_darts_luf_insensitive_to_order(self):
        mem = 250e6
        nat = run(matmul2d(25), 2, "darts+luf", memory=mem)
        shuf = run(matmul2d(25, randomized=True, seed=5), 2, "darts+luf",
                   memory=mem)
        assert shuf.gflops > 0.85 * nat.gflops


class TestFig10ThreeInputs:
    def test_3inputs_variant_beats_plain_luf_on_3d(self):
        g = matmul3d(8)
        plain = run(g, 4, "darts+luf", memory=250e6)
        three = run(g, 4, "darts+luf-3inputs", memory=250e6)
        assert three.gflops > plain.gflops

    def test_3inputs_beats_dmdar_on_3d(self):
        """Paper: ~61 % over DMDAR; we assert a clear win."""
        g = matmul3d(8)
        dmdar = run(g, 4, "dmdar", memory=250e6)
        three = run(g, 4, "darts+luf-3inputs", memory=250e6)
        assert three.gflops > 1.15 * dmdar.gflops


class TestFig11Cholesky:
    def test_darts_luf_beats_dmdar_and_eager_on_cholesky(self):
        g = cholesky_tasks(16)
        eager = run(g, 4, "eager")
        dmdar = run(g, 4, "dmdar")
        luf = run(g, 4, "darts+luf-3inputs")
        assert luf.gflops > 1.2 * dmdar.gflops
        assert luf.gflops > 1.3 * eager.gflops

    def test_opti_slashes_decision_cost(self):
        """OPTI's point: an order of magnitude less *modeled* scan work.

        The claim lives in ``virtual_decision_time`` (charge_ops).  Host
        wall time is no proxy for it: the full scan visits only the
        free-task index's keys, and OPTI walks the kept scan order to its
        first hit, so neither pays per datum what the model charges."""
        g = cholesky_tasks(16)
        full = run(g, 4, "darts+luf-3inputs")
        opti = run(g, 4, "darts+luf+opti-3inputs")
        assert opti.virtual_decision_time < 0.3 * full.virtual_decision_time

    def test_opti_quality_loss_is_bounded(self):
        """Paper: OPTI stays 'close to optimal' — it may lose schedule
        quality but must remain within a reasonable factor and clearly
        above the queue-order baselines."""
        g = cholesky_tasks(16)
        full = run(g, 4, "darts+luf-3inputs")
        opti = run(g, 4, "darts+luf+opti-3inputs")
        eager = run(g, 4, "eager")
        assert opti.gflops > 0.7 * full.gflops
        assert opti.gflops > 1.2 * eager.gflops

    def test_dmdar_also_pays_decision_cost_on_cholesky(self):
        """Paper §V-F: 'DMDAR also suffers from a large scheduling time
        induced by looking at all the tasks'."""
        g = cholesky_tasks(16)
        dmdar = run(g, 4, "dmdar")
        eager = run(g, 4, "eager")
        assert dmdar.virtual_decision_time > 5 * eager.virtual_decision_time


class TestFig12Fig13Sparse:
    def test_darts_luf_beats_dmdar_on_sparse(self):
        g = sparse_matmul2d(120, density=0.02, seed=3)
        dmdar = run(g, 4, "dmdar", memory=250e6)
        luf = run(g, 4, "darts+luf", memory=250e6)
        assert luf.gflops > dmdar.gflops

    def test_no_memory_limit_still_ranks_darts_high(self):
        g = sparse_matmul2d(120, density=0.02, seed=3)
        sched, ev = make_scheduler("darts+luf+opti")
        plat = tesla_v100_node(4, unlimited_memory=True)
        luf = simulate(g, plat, sched, eviction=ev, seed=1)
        sched, ev = make_scheduler("eager")
        eager = simulate(g, plat, sched, eviction=ev, seed=1)
        assert luf.gflops >= 0.95 * eager.gflops
        assert luf.total_evictions == 0


class TestMemoryAwareTransferOrdering:
    """§V's central ordering: memory-aware strategies move less data."""

    def test_darts_transfers_strictly_less_than_eager(self, pressured_2d):
        eager = run(pressured_2d, 1, "eager")
        darts = run(pressured_2d, 1, "darts")
        assert darts.total_mb < eager.total_mb

    def test_hfp_transfers_strictly_less_than_eager(self, pressured_2d):
        eager = run(pressured_2d, 1, "eager")
        mhfp = run(pressured_2d, 1, "mhfp")
        assert mhfp.total_mb < eager.total_mb

    def test_ordering_holds_on_constrained_multi_gpu(self):
        g = matmul2d(30)
        mem = 250e6
        eager = run(g, 2, "eager", memory=mem)
        darts = run(g, 2, "darts", memory=mem)
        mhfp = run(g, 2, "mhfp", memory=mem)
        assert darts.total_mb < eager.total_mb
        assert mhfp.total_mb < eager.total_mb


class TestRepetitionAveraging:
    def test_average_matches_hand_computed_mean(self):
        from repro.experiments.harness import _average
        from repro.metrics.collect import Measurement

        a = Measurement(
            scheduler="S",
            n=4,
            working_set_mb=100.0,
            gflops=10.0,
            gflops_with_sched=8.0,
            transfers_mb=1.5,
            loads=3,
            evictions=1,
            makespan_s=2.0,
            balance=1.0,
            virtual_decision_time_s=0.25,
        )
        b = Measurement(
            scheduler="S",
            n=4,
            working_set_mb=100.0,
            gflops=20.0,
            gflops_with_sched=12.0,
            transfers_mb=2.5,
            loads=6,
            evictions=2,
            makespan_s=4.0,
            balance=1.2,
            virtual_decision_time_s=0.75,
        )
        avg = _average([a, b])
        assert avg.scheduler == "S" and avg.n == 4
        assert avg.working_set_mb == 100.0
        assert avg.gflops == (10.0 + 20.0) / 2
        assert avg.gflops_with_sched == (8.0 + 12.0) / 2
        assert avg.transfers_mb == (1.5 + 2.5) / 2
        assert avg.loads == round((3 + 6) / 2)
        assert avg.evictions == round((1 + 2) / 2)
        assert avg.makespan_s == (2.0 + 4.0) / 2
        assert avg.balance == (1.0 + 1.2) / 2
        assert avg.virtual_decision_time_s == (0.25 + 0.75) / 2

    def test_average_of_single_measurement_is_identity(self):
        from repro.experiments.harness import _average
        from repro.metrics.collect import Measurement

        m = Measurement(
            scheduler="S",
            n=4,
            working_set_mb=1.0,
            gflops=1.0,
            gflops_with_sched=1.0,
            transfers_mb=1.0,
            loads=1,
            evictions=1,
            makespan_s=1.0,
            balance=1.0,
            virtual_decision_time_s=1.0,
        )
        assert _average([m]) is m


class TestFig8Threshold:
    def test_threshold_inactive_below_activation_ratio(self):
        """Paper: the threshold applies 'for working sets larger than
        3500 MB only' — below that the variant is plain DARTS+LUF."""
        g = matmul2d(30)  # 885 MB < 1.75 x 4x250 MB
        full = run(g, 4, "darts+luf", memory=250e6)
        capped = run(g, 4, "darts+luf+threshold", memory=250e6)
        assert capped.makespan == full.makespan
        assert capped.total_loads == full.total_loads

    def test_threshold_reduces_decision_time_on_large_sets(self):
        g = matmul2d(70)  # 2065 MB > 1.75 x 4x250 MB: threshold active
        full = run(g, 4, "darts+luf", memory=250e6)
        capped = run(g, 4, "darts+luf+threshold", memory=250e6)
        assert capped.virtual_decision_time < full.virtual_decision_time
