"""The content-addressed result cache: keys, storage, serialization."""

import json

import pytest

from repro.experiments.cache import (
    ResultCache,
    code_salt,
    graph_fingerprint,
    platform_fingerprint,
)
from repro.experiments.harness import SweepSpec, cell_key, rep_seed, run_cell
from repro.metrics.collect import Measurement
from repro.platform.spec import BusSpec, GpuSpec, PlatformSpec, tesla_v100_node
from repro.workloads.matmul2d import matmul2d


def tiny_spec(**overrides):
    base = dict(
        title="tiny",
        workload=lambda n: matmul2d(n),
        ns=[4],
        platform=lambda: tesla_v100_node(1, memory_bytes=120e6),
        schedulers=["eager"],
    )
    base.update(overrides)
    return SweepSpec(**base)


def sample_measurement(**overrides):
    base = dict(
        scheduler="EAGER",
        n=4,
        working_set_mb=1.0 / 3.0,  # non-terminating binary fraction
        gflops=10238.123456789012,
        gflops_with_sched=10001.98765432101,
        transfers_mb=118.0 + 1e-12,
        loads=37,
        evictions=5,
        makespan_s=0.0123456789,
        balance=1.0000000001,
        virtual_decision_time_s=2.5e-4 / 3.0,
    )
    base.update(overrides)
    return Measurement(**base)


class TestSerialization:
    def test_measurement_json_round_trip_is_lossless(self):
        m = sample_measurement()
        back = Measurement.from_dict(json.loads(json.dumps(m.to_dict())))
        assert back == m
        assert isinstance(back.loads, int) and isinstance(back.n, int)

    def test_deterministic_dict_strips_wall_clock_fields(self):
        d = sample_measurement().deterministic_dict()
        assert "gflops_with_sched" not in d
        assert "gflops" in d and "makespan_s" in d


class TestCellKey:
    def test_key_is_stable(self):
        spec = tiny_spec()
        assert cell_key(spec, 4, "eager", 0) == cell_key(spec, 4, "eager", 0)

    def test_key_ignores_cosmetic_title(self):
        a = cell_key(tiny_spec(title="a"), 4, "eager", 0)
        b = cell_key(tiny_spec(title="b"), 4, "eager", 0)
        assert a == b

    def test_key_depends_on_everything_that_matters(self):
        spec = tiny_spec()
        base = cell_key(spec, 4, "eager", 0)
        assert cell_key(spec, 6, "eager", 0) != base  # instance size
        assert cell_key(spec, 4, "dmdar", 0) != base  # scheduler
        assert cell_key(spec, 4, "eager", 1) != base  # repetition
        assert cell_key(tiny_spec(seed=1), 4, "eager", 0) != base  # seed
        assert cell_key(tiny_spec(window=3), 4, "eager", 0) != base  # window
        other_platform = tiny_spec(
            platform=lambda: tesla_v100_node(2, memory_bytes=120e6)
        )
        assert cell_key(other_platform, 4, "eager", 0) != base  # platform

    def test_threshold_only_affects_threshold_schedulers(self):
        plain_a = cell_key(tiny_spec(threshold=None), 4, "darts+luf", 0)
        plain_b = cell_key(tiny_spec(threshold=10), 4, "darts+luf", 0)
        assert plain_a == plain_b
        spec = tiny_spec(threshold=10)
        thresh = cell_key(spec, 4, "darts+luf+threshold", 0)
        other = cell_key(tiny_spec(threshold=20), 4, "darts+luf+threshold", 0)
        assert thresh != other

    def test_graph_fingerprint_ignores_labels(self):
        from repro.core.problem import TaskGraph

        a = TaskGraph("a")
        d1 = a.add_data(8.0, name="x")
        a.add_task([d1], flops=1.0, name="t")
        b = TaskGraph("b")
        d2 = b.add_data(8.0, name="renamed")
        b.add_task([d2], flops=1.0, name="other")
        assert graph_fingerprint(a) == graph_fingerprint(b)
        c = TaskGraph("c")
        d3 = c.add_data(9.0)
        c.add_task([d3], flops=1.0)
        assert graph_fingerprint(c) != graph_fingerprint(a)

    def test_platform_fingerprint_covers_peer_link(self):
        plain = PlatformSpec(gpus=[GpuSpec()], bus=BusSpec())
        peer = PlatformSpec(
            gpus=[GpuSpec()], bus=BusSpec(), peer_link=BusSpec(bandwidth=5.0)
        )
        assert platform_fingerprint(plain) != platform_fingerprint(peer)

    def test_code_salt_is_a_hex_digest(self):
        salt = code_salt()
        assert len(salt) == 64
        int(salt, 16)


class TestResultCache:
    def test_put_get_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        m = sample_measurement()
        cache.put("ab" + "0" * 62, m)
        assert cache.get("ab" + "0" * 62) == m
        assert cache.hits == 1 and cache.misses == 0

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("cd" + "0" * 62) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        cache.put(key, sample_measurement())
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{not json")
        assert cache.get(key) is None

    def test_cached_measurement_equals_recomputation(self, tmp_path):
        spec = tiny_spec()
        m = run_cell(spec, 4, "eager", 0)
        cache = ResultCache(tmp_path)
        key = cell_key(spec, 4, "eager", 0)
        cache.put(key, m)
        assert cache.get(key) == m

    def test_stats_since(self, tmp_path):
        cache = ResultCache(tmp_path)
        before = cache.snapshot()
        cache.get("ab" + "0" * 62)
        assert cache.stats_since(before) == {"hits": 0, "misses": 1}


class TestRepSeed:
    def test_deterministic(self):
        assert rep_seed(0, "eager", 4, 0) == rep_seed(0, "eager", 4, 0)

    def test_mixes_scheduler_name_and_size(self):
        base = rep_seed(0, "eager", 4, 0)
        assert rep_seed(0, "dmdar", 4, 0) != base
        assert rep_seed(0, "eager", 6, 0) != base
        assert rep_seed(0, "eager", 4, 1) != base
        assert rep_seed(1, "eager", 4, 0) != base

    def test_name_canonicalization(self):
        assert rep_seed(0, " DARTS+LUF ", 4, 0) == rep_seed(
            0, "darts+luf", 4, 0
        )

    def test_repetitions_of_one_scheduler_get_distinct_seeds(self):
        seeds = {rep_seed(0, "eager", 4, rep) for rep in range(10)}
        assert len(seeds) == 10

    def test_schedulers_do_not_share_a_seed_ladder(self):
        """The pre-fix bug: seeds were ``spec.seed + rep`` for every
        scheduler and every n, so all cells of a repetition shared one
        random state."""
        with pytest.raises(AssertionError):
            assert rep_seed(0, "eager", 4, 1) == rep_seed(0, "dmdar", 6, 1)
