"""Each lint rule fires on minimal bad code and stays silent on good."""

import ast
from importlib.util import find_spec
from pathlib import Path

import pytest

import repro
from tests.check.lint_rules import (
    HOT_PACKAGES,
    PERF_COUNTER_WHITELIST,
    RULES,
    in_packages,
    lint_source,
    module_name,
)

#: the directory holding the ``repro`` package under test
SRC_ROOT = Path(repro.__file__).resolve().parent.parent


def codes(source, module="repro.schedulers.mine"):
    return [code for code, _, _ in lint_source(source, module)]


def src_modules():
    """``(path, dotted name)`` of every module under ``src/repro``."""
    return [
        (path, module_name(path, SRC_ROOT))
        for path in sorted((SRC_ROOT / "repro").rglob("*.py"))
    ]


class TestDET001UnseededRandom:
    def test_module_level_random_flagged(self):
        src = "import random\nx = random.random()\n"
        assert "DET001" in codes(src)

    def test_aliased_module_flagged(self):
        src = "import random as rnd\nx = rnd.randint(0, 3)\n"
        assert "DET001" in codes(src)

    def test_from_import_flagged(self):
        src = "from random import shuffle\nshuffle([1, 2])\n"
        assert "DET001" in codes(src)

    def test_seeded_instance_ok(self):
        src = "import random\nrng = random.Random(42)\nx = rng.random()\n"
        assert codes(src) == []

    def test_unseeded_instance_flagged(self):
        src = "import random\nrng = random.Random()\n"
        assert "DET001" in codes(src)

    def test_numpy_legacy_flagged(self):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert "DET001" in codes(src)

    def test_numpy_default_rng_ok(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert codes(src) == []

    def test_keyword_seeded_instance_ok(self):
        src = "import random\nrng = random.Random(x=7)\n"
        assert codes(src) == []

    def test_from_imported_random_class_ok(self):
        src = "from random import Random\nrng = Random(3)\n"
        assert codes(src) == []

    def test_aliased_from_import_named_by_original(self):
        src = "from random import choice as pick\nx = pick([1, 2])\n"
        [(code, line, message)] = lint_source(src, "repro.schedulers.mine")
        assert (code, line) == ("DET001", 2)
        assert "random.choice()" in message

    def test_scheduler_with_module_random_fails_lint(self):
        """The acceptance scenario: a seeded random.Random in a scheduler
        replaced by module-level random.random() must fail the lint."""
        bad_scheduler = (
            "import random\n"
            "class MyScheduler:\n"
            "    def next_task(self, gpu):\n"
            "        return int(random.random() * 10)\n"
        )
        assert "DET001" in codes(bad_scheduler, "repro.schedulers.mine")


class TestDET002WallClock:
    def test_time_time_flagged_anywhere(self):
        src = "import time\nt = time.time()\n"
        assert "DET002" in codes(src, "repro.experiments.timing")

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert "DET002" in codes(src)

    def test_datetime_module_form_flagged(self):
        src = "import datetime\nt = datetime.datetime.utcnow()\n"
        assert "DET002" in codes(src)

    def test_perf_counter_ok_outside_simulated_paths(self):
        src = "import time\nt = time.perf_counter()\n"
        assert codes(src, "repro.experiments.timing") == []

    def test_perf_counter_flagged_in_simulated_path(self):
        src = "import time\nt = time.perf_counter()\n"
        assert "DET002" in codes(src, "repro.schedulers.clocky")

    def test_perf_counter_whitelisted_in_kernel(self):
        src = "import time as _time\nt = _time.perf_counter()\n"
        assert codes(src, "repro.simulator.kernel") == []

    @pytest.mark.parametrize("fn", ["time", "time_ns", "clock"])
    def test_from_time_import_flagged_anywhere(self, fn):
        src = f"from time import {fn}\nt = {fn}()\n"
        assert "DET002" in codes(src, "repro.experiments.timing")

    def test_from_imported_perf_counter_flagged_in_simulated_path(self):
        src = "from time import perf_counter as pc\nt = pc()\n"
        assert "DET002" in codes(src, "repro.partitioning.fm")
        assert codes(src, "repro.experiments.timing") == []

    def test_monotonic_flagged_in_simulated_path(self):
        src = "import time\nt = time.monotonic()\n"
        assert "DET002" in codes(src, "repro.eviction.lru")

    def test_date_today_flagged(self):
        src = "from datetime import date\nd = date.today()\n"
        assert "DET002" in codes(src, "repro.experiments.report")

    def test_simulated_path_message_names_the_whitelist(self):
        src = "import time\nt = time.perf_counter()\n"
        [(_, _, message)] = lint_source(src, "repro.core.task")
        assert "repro.simulator.kernel" in message

    @pytest.mark.parametrize(
        "module",
        [
            "repro.simulator.runtime",
            "repro.simulator.prefetch",
            "repro.simulator.worker",
        ],
    )
    def test_perf_counter_flagged_in_other_simulator_modules(self, module):
        # Only the kernel times a scheduler call (``prepare``); the
        # facade, the prefetcher and the worker read no host clock.
        src = "import time as _time\nt = _time.perf_counter()\n"
        assert "DET002" in codes(src, module)

    @pytest.mark.parametrize("module", PERF_COUNTER_WHITELIST)
    def test_whitelisted_module_still_calls_perf_counter(self, module):
        # A whitelist entry whose module no longer reads the clock is a
        # stale exemption: delete it together with the last call site.
        tree = ast.parse(Path(find_spec(module).origin).read_text())
        called = {
            node.func.attr if isinstance(node.func, ast.Attribute)
            else getattr(node.func, "id", None)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert "perf_counter" in called


class TestDET003UnorderedIteration:
    def test_for_over_set_call_flagged(self):
        src = "for x in set([3, 1, 2]):\n    print(x)\n"
        assert "DET003" in codes(src)

    def test_listcomp_over_set_param_flagged(self):
        src = (
            "from typing import Set\n"
            "def pick(candidates: Set[int]):\n"
            "    return [d for d in candidates if d > 0][0]\n"
        )
        assert "DET003" in codes(src)

    def test_sorted_wrap_ok(self):
        src = (
            "from typing import Set\n"
            "def pick(candidates: Set[int]):\n"
            "    return [d for d in sorted(candidates) if d > 0][0]\n"
        )
        assert codes(src) == []

    def test_order_insensitive_reducers_ok(self):
        src = (
            "from typing import Set\n"
            "def agg(candidates: Set[int]):\n"
            "    return min(candidates), sum(c for c in candidates)\n"
        )
        assert codes(src) == []

    def test_set_returning_method_flagged(self):
        src = "def f(mem):\n    return list(mem.evictable())\n"
        assert "DET003" in codes(src)

    def test_dict_comprehension_over_set_ok(self):
        src = (
            "from typing import Set\n"
            "def tally(candidates: Set[int]):\n"
            "    return {d: 0 for d in candidates}\n"
        )
        assert codes(src) == []

    def test_tuple_conversion_of_set_literal_flagged(self):
        src = "order = tuple({3, 1, 2})\n"
        assert "DET003" in codes(src)

    def test_generator_into_order_sensitive_call_flagged(self):
        src = (
            "from typing import FrozenSet\n"
            "def first(candidates: FrozenSet[int]):\n"
            "    return next(d for d in candidates if d > 0)\n"
        )
        assert "DET003" in codes(src)

    def test_keyword_only_set_param_flagged(self):
        src = (
            "import typing\n"
            "def walk(*, seen: typing.AbstractSet[int]):\n"
            "    for d in seen:\n"
            "        print(d)\n"
        )
        assert "DET003" in codes(src)

    def test_set_param_scoped_to_its_function(self):
        src = (
            "def a(xs: set):\n"
            "    return sorted(xs)\n"
            "def b(xs):\n"
            "    return [x for x in xs]\n"
        )
        assert codes(src) == []


class TestDET004FloatTimeEquality:
    def test_now_equality_flagged_in_simulated_path(self):
        src = "def f(engine, t):\n    return engine.now == t\n"
        assert "DET004" in codes(src, "repro.simulator.thing")

    def test_time_suffix_flagged(self):
        src = "def f(a, busy_time):\n    return busy_time != a\n"
        assert "DET004" in codes(src, "repro.core.thing")

    def test_ordering_comparisons_ok(self):
        src = "def f(engine, t):\n    return engine.now <= t\n"
        assert codes(src, "repro.simulator.thing") == []

    def test_not_applied_outside_simulated_paths(self):
        src = "def f(engine, t):\n    return engine.now == t\n"
        assert codes(src, "repro.experiments.thing") == []

    def test_chained_comparison_checks_each_pair(self):
        src = "def f(a, b, makespan):\n    return a < b != makespan\n"
        assert "DET004" in codes(src, "repro.dag.thing")

    def test_equality_on_non_time_names_ok(self):
        src = "def f(task, gpu):\n    return task.gpu == gpu\n"
        assert codes(src, "repro.simulator.thing") == []


class TestAPIConformance:
    def test_repo_registry_is_conformant(self):
        from repro.schedulers.registry import validate_registry

        assert validate_registry() == []

    def test_repo_eviction_policies_are_conformant(self):
        import repro.eviction as ev
        from repro.eviction.base import validate_policy_class

        for name, cls in sorted(ev._BY_NAME.items()):
            assert validate_policy_class(cls, name) == []

    def test_nonconforming_policy_reported(self):
        from repro.eviction.base import validate_policy_class

        class NotAPolicy:
            pass

        problems = validate_policy_class(NotAPolicy, "bogus")
        assert problems and "EvictionPolicyProtocol" in problems[0]

    def test_policy_missing_choose_victim_reported(self):
        from repro.eviction.base import EvictionPolicy, validate_policy_class

        class Lazy(EvictionPolicy):
            name = "lazy"

        problems = validate_policy_class(Lazy, "lazy")
        assert any("choose_victim" in p for p in problems)

    def test_api003_rt_access_flagged_in_scheduler(self):
        src = (
            "class Greedy:\n"
            "    def prepare(self, view):\n"
            "        self.mem = view._rt.memories[0]\n"
        )
        assert "API003" in codes(src, "repro.schedulers.greedy")

    def test_api003_view_attribute_assignment_flagged(self):
        src = (
            "class Policy:\n"
            "    def on_insert(self, d):\n"
            "        self.view.graph.tasks = []\n"
        )
        assert "API003" in codes(src, "repro.eviction.hacky")

    def test_api003_augmented_assignment_flagged(self):
        src = "def f(view):\n    view.platform.n_gpus += 1\n"
        assert "API003" in codes(src, "repro.schedulers.mut")

    def test_api003_reads_through_view_are_fine(self):
        src = (
            "class Greedy:\n"
            "    def prepare(self, view):\n"
            "        self.view = view\n"
            "        self.caps = [view.capacity(k) for k in range(view.n_gpus)]\n"
            "    def next_task(self, gpu):\n"
            "        return sorted(self.view.present(gpu))\n"
            "    def on_device_lost(self, gpu, requeued):\n"
            "        pass\n"
        )
        assert codes(src, "repro.schedulers.ok") == []

    def test_api003_silent_outside_strategy_packages(self):
        src = "def f(view):\n    view._rt.workers[0].buffer.clear()\n"
        assert "API003" not in codes(src, "repro.simulator.helper")

    def test_api003_subscript_store_through_view_flagged(self):
        src = "def f(self, t):\n    self._view.graph.tasks[0] = t\n"
        assert "API003" in codes(src, "repro.schedulers.mut")

    def test_api003_delete_through_view_flagged(self):
        src = "def f(view):\n    del view.platform.gpus\n"
        assert "API003" in codes(src, "repro.eviction.mut")

    def test_api003_rebinding_own_attribute_ok(self):
        src = (
            "class Policy:\n"
            "    def attach(self, view):\n"
            "        self.view = view\n"
            "        self.seen = view.n_gpus\n"
        )
        assert codes(src, "repro.eviction.ok") == []

    def test_whole_repo_src_is_lint_clean(self):
        hits = [
            f"{path}:{line}: {code} {message}"
            for path, module in src_modules()
            for code, line, message in lint_source(path.read_text(), module)
        ]
        assert hits == [], "\n".join(hits)


class TestLintSource:
    def test_every_rule_runs(self):
        assert sorted(RULES) == [
            "API003", "API004", "DET001", "DET002", "DET003", "DET004",
            "PERF001",
        ]

    def test_hits_listed_rule_by_rule_with_lines(self):
        src = (
            "import random\n"
            "for d in set([1, 2]):\n"
            "    x = random.random()\n"
        )
        hits = lint_source(src, "repro.schedulers.mine")
        assert [(code, line) for code, line, _ in hits] == [
            ("DET001", 3),
            ("DET003", 2),
        ]


class TestModuleNames:
    def test_directories_above_src_do_not_enter_the_name(self):
        # In a checkout called ``repro``, a name cut at the first
        # ``repro`` directory reads ``repro.src.repro.simulator.worker``,
        # which every package-scoped rule skips.
        root = Path("/work/repro/src")
        worker = root / "repro" / "simulator" / "worker.py"
        package = root / "repro" / "simulator" / "__init__.py"
        assert module_name(worker, root) == "repro.simulator.worker"
        assert module_name(package, root) == "repro.simulator"

    def test_hot_path_rules_visit_every_hot_file(self):
        # The package-scoped rules (DET002's perf_counter ban, DET004,
        # PERF001, API003, API004) see a file only through its name.
        visited = {
            path for path, module in src_modules()
            if in_packages(module, HOT_PACKAGES)
        }
        expected = {
            path
            for pkg in ("simulator", "schedulers", "eviction")
            for path in (SRC_ROOT / "repro" / pkg).rglob("*.py")
        }
        assert visited == expected and expected


class TestPERF001FullRescan:
    _BAD = (
        "class Mem:\n"
        "    def evictable(self):\n"
        "        return {d for d, s in self._state.items() if s == 1}\n"
    )

    def test_filtered_items_rescan_flagged_in_hot_path(self):
        assert "PERF001" in codes(self._BAD, "repro.simulator.mem")

    @pytest.mark.parametrize("scan", ["keys", "values"])
    def test_filtered_keys_and_values_rescans_flagged(self, scan):
        src = (
            "class Mem:\n"
            "    def ready(self):\n"
            f"        return [x for x in self._state.{scan}() if x]\n"
        )
        [(code, line, message)] = lint_source(src, "repro.eviction.mem")
        assert (code, line) == ("PERF001", 3)
        assert f"self._state.{scan}()" in message

    def test_same_code_silent_outside_hot_packages(self):
        assert "PERF001" not in codes(self._BAD, "repro.experiments.mem")

    def test_cold_functions_exempt(self):
        src = (
            "class Mem:\n"
            "    def check_invariants(self):\n"
            "        return {d for d, s in self._state.items() if s == 1}\n"
            "    def __init__(self):\n"
            "        self.free = [t for t, s in self._state.items() if s]\n"
            "    def _build_index(self):\n"
            "        return [t for t, s in self._state.items() if not s]\n"
        )
        assert "PERF001" not in codes(src, "repro.simulator.mem")

    def test_nested_function_inside_cold_parent_exempt(self):
        src = (
            "class Mem:\n"
            "    def prepare(self, view):\n"
            "        def helper():\n"
            "            return {d for d in self._x.keys() if d}\n"
            "        return helper()\n"
        )
        assert "PERF001" not in codes(src, "repro.schedulers.mem")

    def test_unfiltered_iteration_ok(self):
        src = (
            "class Pk:\n"
            "    def push(self):\n"
            "        return [(q, w) for q, w in self.nbr.items()]\n"
        )
        assert "PERF001" not in codes(src, "repro.schedulers.pk")

    def test_local_dict_scan_ok(self):
        src = (
            "class S:\n"
            "    def next_task(self, score):\n"
            "        return sorted(d for d, s in score.items() if s)\n"
        )
        assert "PERF001" not in codes(src, "repro.schedulers.s")

    def test_subscripted_store_scan_ok(self):
        """Scanning one bucket of a per-id container is not a full rescan."""
        src = (
            "class Pk:\n"
            "    def push(self, pid):\n"
            "        return [q for q, w in self.nbr[pid].items() if w > 0]\n"
        )
        assert "PERF001" not in codes(src, "repro.schedulers.pk")


class TestAPI004DeviceListCache:
    BAD = (
        "class MyScheduler:\n"
        "    def prepare(self, view):\n"
        "        self.lists = [[] for _ in range(view.n_gpus)]\n"
    )

    def test_cached_device_state_without_hook_flagged(self):
        assert "API004" in codes(self.BAD, "repro.schedulers.mine")

    def test_on_device_lost_in_body_ok(self):
        src = self.BAD + (
            "    def on_device_lost(self, gpu, requeued):\n"
            "        pass\n"
        )
        assert "API004" not in codes(src, "repro.schedulers.mine")

    def test_drop_gpu_container_contract_ok(self):
        src = (
            "class Lists:\n"
            "    def __init__(self, n_gpus):\n"
            "        self.lists = [[] for _ in range(n_gpus)]\n"
            "    def drop_gpu(self, gpu, requeued):\n"
            "        pass\n"
        )
        assert "API004" not in codes(src, "repro.schedulers.ready2")

    def test_hook_inherited_from_schedulers_class_ok(self):
        src = (
            "from repro.schedulers.ready import ListScheduler\n"
            "class Mine(ListScheduler):\n"
            "    def allocate(self, view):\n"
            "        self.parts = [[] for _ in range(view.n_gpus)]\n"
            "        return self.parts\n"
        )
        assert "API004" not in codes(src, "repro.schedulers.mine")

    def test_hook_inherited_from_same_module_ok(self):
        src = (
            "class Base:\n"
            "    def on_device_lost(self, gpu, requeued):\n"
            "        pass\n"
            "class Mine(Base):\n"
            "    def prepare(self, view):\n"
            "        self.lists = [[] for _ in range(view.n_gpus)]\n"
        )
        assert "API004" not in codes(src, "repro.schedulers.mine")

    def test_scheduler_base_raising_default_flagged(self):
        src = (
            "from repro.schedulers.base import Scheduler\n"
            "class Mine(Scheduler):\n"
            "    def prepare(self, view):\n"
            "        self.lists = [[] for _ in range(view.n_gpus)]\n"
        )
        assert "API004" in codes(src, "repro.schedulers.mine")

    def test_no_device_sizing_ok(self):
        src = (
            "class Eagerish:\n"
            "    def prepare(self, view):\n"
            "        self.queue = list(view.graph.tasks)\n"
        )
        assert "API004" not in codes(src, "repro.schedulers.eagerish")

    def test_silent_outside_schedulers_package(self):
        assert "API004" not in codes(self.BAD, "repro.eviction.mine")

    def test_bare_n_gpus_name_read_flagged(self):
        src = (
            "class S:\n"
            "    def prepare(self, view):\n"
            "        n_gpus = view.n_gpus\n"
            "        self.loads = [0.0] * n_gpus\n"
        )
        assert "API004" in codes(src, "repro.schedulers.s")

    def test_annotated_store_flagged(self):
        src = (
            "class S:\n"
            "    def prepare(self, view):\n"
            "        self.loads: list = [0.0] * view.n_gpus\n"
        )
        assert "API004" in codes(src, "repro.schedulers.s")

    def test_aliased_hooked_base_ok(self):
        src = (
            "from repro.schedulers.ready import ListScheduler as LS\n"
            "class Mine(LS):\n"
            "    def allocate(self, view):\n"
            "        self.parts = [[] for _ in range(view.n_gpus)]\n"
        )
        assert "API004" not in codes(src, "repro.schedulers.mine")

    def test_unimportable_base_proves_nothing(self):
        src = (
            "from repro.schedulers.ready import NoSuchBase\n"
            "class Mine(NoSuchBase):\n"
            "    def prepare(self, view):\n"
            "        self.lists = [[] for _ in range(view.n_gpus)]\n"
        )
        assert "API004" in codes(src, "repro.schedulers.mine")
