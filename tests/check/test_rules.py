"""Each lint rule fires on minimal bad code and stays silent on good."""

import ast
from importlib.util import find_spec
from pathlib import Path

import pytest

from repro.check.lint.framework import Linter
from repro.check.lint.rules import PERF_COUNTER_WHITELIST


def lint(tmp_path, source, filename="mod.py"):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return Linter().lint_file(path)


def codes(violations):
    return [v.code for v in violations]


class TestDET001UnseededRandom:
    def test_module_level_random_flagged(self, tmp_path):
        src = "import random\nx = random.random()\n"
        assert "DET001" in codes(lint(tmp_path, src))

    def test_aliased_module_flagged(self, tmp_path):
        src = "import random as rnd\nx = rnd.randint(0, 3)\n"
        assert "DET001" in codes(lint(tmp_path, src))

    def test_from_import_flagged(self, tmp_path):
        src = "from random import shuffle\nshuffle([1, 2])\n"
        assert "DET001" in codes(lint(tmp_path, src))

    def test_seeded_instance_ok(self, tmp_path):
        src = "import random\nrng = random.Random(42)\nx = rng.random()\n"
        assert codes(lint(tmp_path, src)) == []

    def test_unseeded_instance_flagged(self, tmp_path):
        src = "import random\nrng = random.Random()\n"
        assert "DET001" in codes(lint(tmp_path, src))

    def test_numpy_legacy_flagged(self, tmp_path):
        src = "import numpy as np\nx = np.random.rand(3)\n"
        assert "DET001" in codes(lint(tmp_path, src))

    def test_numpy_default_rng_ok(self, tmp_path):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert codes(lint(tmp_path, src)) == []

    def test_scheduler_with_module_random_fails_lint(self, tmp_path):
        """The acceptance scenario: a seeded random.Random in a scheduler
        replaced by module-level random.random() must fail the lint."""
        bad_scheduler = (
            "import random\n"
            "class MyScheduler:\n"
            "    def next_task(self, gpu):\n"
            "        return int(random.random() * 10)\n"
        )
        violations = lint(
            tmp_path, bad_scheduler, filename="repro/schedulers/mine.py"
        )
        assert "DET001" in codes(violations)


class TestDET002WallClock:
    def test_time_time_flagged_anywhere(self, tmp_path):
        src = "import time\nt = time.time()\n"
        assert "DET002" in codes(lint(tmp_path, src))

    def test_datetime_now_flagged(self, tmp_path):
        src = "from datetime import datetime\nt = datetime.now()\n"
        assert "DET002" in codes(lint(tmp_path, src))

    def test_datetime_module_form_flagged(self, tmp_path):
        src = "import datetime\nt = datetime.datetime.utcnow()\n"
        assert "DET002" in codes(lint(tmp_path, src))

    def test_perf_counter_ok_outside_simulated_paths(self, tmp_path):
        src = "import time\nt = time.perf_counter()\n"
        violations = lint(
            tmp_path, src, filename="repro/experiments/timing.py"
        )
        assert codes(violations) == []

    def test_perf_counter_flagged_in_simulated_path(self, tmp_path):
        src = "import time\nt = time.perf_counter()\n"
        violations = lint(
            tmp_path, src, filename="repro/schedulers/clocky.py"
        )
        assert "DET002" in codes(violations)

    def test_perf_counter_whitelisted_in_kernel(self, tmp_path):
        src = "import time as _time\nt = _time.perf_counter()\n"
        violations = lint(tmp_path, src, filename="repro/simulator/kernel.py")
        assert codes(violations) == []

    @pytest.mark.parametrize(
        "module",
        [
            "repro/simulator/runtime.py",
            "repro/simulator/prefetch.py",
            "repro/simulator/worker.py",
        ],
    )
    def test_perf_counter_flagged_in_other_simulator_modules(
        self, tmp_path, module
    ):
        # Only the kernel times a scheduler call (``prepare``); the
        # facade, the prefetcher and the worker read no host clock.
        src = "import time as _time\nt = _time.perf_counter()\n"
        violations = lint(tmp_path, src, filename=module)
        assert "DET002" in codes(violations)

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
    def test_for_over_set_call_flagged(self, tmp_path):
        src = "for x in set([3, 1, 2]):\n    print(x)\n"
        assert "DET003" in codes(lint(tmp_path, src))

    def test_listcomp_over_set_param_flagged(self, tmp_path):
        src = (
            "from typing import Set\n"
            "def pick(candidates: Set[int]):\n"
            "    return [d for d in candidates if d > 0][0]\n"
        )
        assert "DET003" in codes(lint(tmp_path, src))

    def test_sorted_wrap_ok(self, tmp_path):
        src = (
            "from typing import Set\n"
            "def pick(candidates: Set[int]):\n"
            "    return [d for d in sorted(candidates) if d > 0][0]\n"
        )
        assert codes(lint(tmp_path, src)) == []

    def test_order_insensitive_reducers_ok(self, tmp_path):
        src = (
            "from typing import Set\n"
            "def agg(candidates: Set[int]):\n"
            "    return min(candidates), sum(c for c in candidates)\n"
        )
        assert codes(lint(tmp_path, src)) == []

    def test_set_returning_method_flagged(self, tmp_path):
        src = "def f(mem):\n    return list(mem.evictable())\n"
        assert "DET003" in codes(lint(tmp_path, src))

    def test_dict_comprehension_over_set_ok(self, tmp_path):
        src = (
            "from typing import Set\n"
            "def tally(candidates: Set[int]):\n"
            "    return {d: 0 for d in candidates}\n"
        )
        assert codes(lint(tmp_path, src)) == []


class TestDET004FloatTimeEquality:
    def test_now_equality_flagged_in_simulated_path(self, tmp_path):
        src = "def f(engine, t):\n    return engine.now == t\n"
        violations = lint(
            tmp_path, src, filename="repro/simulator/thing.py"
        )
        assert "DET004" in codes(violations)

    def test_time_suffix_flagged(self, tmp_path):
        src = "def f(a, busy_time):\n    return busy_time != a\n"
        violations = lint(tmp_path, src, filename="repro/core/thing.py")
        assert "DET004" in codes(violations)

    def test_ordering_comparisons_ok(self, tmp_path):
        src = "def f(engine, t):\n    return engine.now <= t\n"
        violations = lint(
            tmp_path, src, filename="repro/simulator/thing.py"
        )
        assert codes(violations) == []

    def test_not_applied_outside_simulated_paths(self, tmp_path):
        src = "def f(engine, t):\n    return engine.now == t\n"
        violations = lint(
            tmp_path, src, filename="repro/experiments/thing.py"
        )
        assert codes(violations) == []


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

    def test_api003_rt_access_flagged_in_scheduler(self, tmp_path):
        src = (
            "class Greedy:\n"
            "    def prepare(self, view):\n"
            "        self.mem = view._rt.memories[0]\n"
        )
        violations = lint(tmp_path, src, filename="repro/schedulers/greedy.py")
        assert "API003" in codes(violations)

    def test_api003_view_attribute_assignment_flagged(self, tmp_path):
        src = (
            "class Policy:\n"
            "    def on_insert(self, d):\n"
            "        self.view.graph.tasks = []\n"
        )
        violations = lint(tmp_path, src, filename="repro/eviction/hacky.py")
        assert "API003" in codes(violations)

    def test_api003_augmented_assignment_flagged(self, tmp_path):
        src = "def f(view):\n    view.platform.n_gpus += 1\n"
        violations = lint(tmp_path, src, filename="repro/schedulers/mut.py")
        assert "API003" in codes(violations)

    def test_api003_reads_through_view_are_fine(self, tmp_path):
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
        violations = lint(tmp_path, src, filename="repro/schedulers/ok.py")
        assert codes(violations) == []

    def test_api003_silent_outside_strategy_packages(self, tmp_path):
        src = "def f(view):\n    view._rt.workers[0].buffer.clear()\n"
        violations = lint(tmp_path, src, filename="repro/simulator/helper.py")
        assert "API003" not in codes(violations)

    def test_project_rules_run_via_linter(self, tmp_path):
        """Project rules execute once per linted root and stay silent on
        the conformant repo."""
        from repro.check.lint.framework import Linter, ProjectRule

        (tmp_path / "empty.py").write_text("x = 1\n")
        violations = Linter().lint_paths([tmp_path])
        assert codes(violations) == []

    def test_whole_repo_src_is_lint_clean(self):
        import repro

        src_root = Path(repro.__file__).resolve().parent
        violations = Linter().lint_paths([src_root])
        assert violations == [], "\n".join(v.format() for v in violations)


class TestPERF001FullRescan:
    _BAD = (
        "class Mem:\n"
        "    def evictable(self):\n"
        "        return {d for d, s in self._state.items() if s == 1}\n"
    )

    def test_filtered_items_rescan_flagged_in_hot_path(self, tmp_path):
        violations = lint(
            tmp_path, self._BAD, filename="repro/simulator/mem.py"
        )
        assert "PERF001" in codes(violations)

    def test_same_code_silent_outside_hot_packages(self, tmp_path):
        violations = lint(
            tmp_path, self._BAD, filename="repro/experiments/mem.py"
        )
        assert "PERF001" not in codes(violations)

    def test_cold_functions_exempt(self, tmp_path):
        src = (
            "class Mem:\n"
            "    def check_invariants(self):\n"
            "        return {d for d, s in self._state.items() if s == 1}\n"
            "    def __init__(self):\n"
            "        self.free = [t for t, s in self._state.items() if s]\n"
            "    def _build_index(self):\n"
            "        return [t for t, s in self._state.items() if not s]\n"
        )
        violations = lint(tmp_path, src, filename="repro/simulator/mem.py")
        assert "PERF001" not in codes(violations)

    def test_nested_function_inside_cold_parent_exempt(self, tmp_path):
        src = (
            "class Mem:\n"
            "    def prepare(self, view):\n"
            "        def helper():\n"
            "            return {d for d in self._x.keys() if d}\n"
            "        return helper()\n"
        )
        violations = lint(tmp_path, src, filename="repro/schedulers/mem.py")
        assert "PERF001" not in codes(violations)

    def test_unfiltered_iteration_ok(self, tmp_path):
        src = (
            "class Pk:\n"
            "    def push(self):\n"
            "        return [(q, w) for q, w in self.nbr.items()]\n"
        )
        violations = lint(tmp_path, src, filename="repro/schedulers/pk.py")
        assert "PERF001" not in codes(violations)

    def test_local_dict_scan_ok(self, tmp_path):
        src = (
            "class S:\n"
            "    def next_task(self, score):\n"
            "        return sorted(d for d, s in score.items() if s)\n"
        )
        violations = lint(tmp_path, src, filename="repro/schedulers/s.py")
        assert "PERF001" not in codes(violations)

    def test_subscripted_store_scan_ok(self, tmp_path):
        """Scanning one bucket of a per-id container is not a full rescan."""
        src = (
            "class Pk:\n"
            "    def push(self, pid):\n"
            "        return [q for q, w in self.nbr[pid].items() if w > 0]\n"
        )
        violations = lint(tmp_path, src, filename="repro/schedulers/pk.py")
        assert "PERF001" not in codes(violations)


class TestAPI004DeviceListCache:
    BAD = (
        "class MyScheduler:\n"
        "    def prepare(self, view):\n"
        "        self.lists = [[] for _ in range(view.n_gpus)]\n"
    )

    def test_cached_device_state_without_hook_flagged(self, tmp_path):
        violations = lint(
            tmp_path, self.BAD, filename="repro/schedulers/mine.py"
        )
        assert "API004" in codes(violations)

    def test_on_device_lost_in_body_ok(self, tmp_path):
        src = self.BAD + (
            "    def on_device_lost(self, gpu, requeued):\n"
            "        pass\n"
        )
        violations = lint(
            tmp_path, src, filename="repro/schedulers/mine.py"
        )
        assert "API004" not in codes(violations)

    def test_drop_gpu_container_contract_ok(self, tmp_path):
        src = (
            "class Lists:\n"
            "    def __init__(self, n_gpus):\n"
            "        self.lists = [[] for _ in range(n_gpus)]\n"
            "    def drop_gpu(self, gpu, requeued):\n"
            "        pass\n"
        )
        violations = lint(
            tmp_path, src, filename="repro/schedulers/ready2.py"
        )
        assert "API004" not in codes(violations)

    def test_hook_inherited_from_schedulers_class_ok(self, tmp_path):
        src = (
            "from repro.schedulers.ready import ListScheduler\n"
            "class Mine(ListScheduler):\n"
            "    def allocate(self, view):\n"
            "        self.parts = [[] for _ in range(view.n_gpus)]\n"
            "        return self.parts\n"
        )
        violations = lint(
            tmp_path, src, filename="repro/schedulers/mine.py"
        )
        assert "API004" not in codes(violations)

    def test_hook_inherited_from_same_module_ok(self, tmp_path):
        src = (
            "class Base:\n"
            "    def on_device_lost(self, gpu, requeued):\n"
            "        pass\n"
            "class Mine(Base):\n"
            "    def prepare(self, view):\n"
            "        self.lists = [[] for _ in range(view.n_gpus)]\n"
        )
        violations = lint(
            tmp_path, src, filename="repro/schedulers/mine.py"
        )
        assert "API004" not in codes(violations)

    def test_scheduler_base_raising_default_flagged(self, tmp_path):
        src = (
            "from repro.schedulers.base import Scheduler\n"
            "class Mine(Scheduler):\n"
            "    def prepare(self, view):\n"
            "        self.lists = [[] for _ in range(view.n_gpus)]\n"
        )
        violations = lint(
            tmp_path, src, filename="repro/schedulers/mine.py"
        )
        assert "API004" in codes(violations)

    def test_no_device_sizing_ok(self, tmp_path):
        src = (
            "class Eagerish:\n"
            "    def prepare(self, view):\n"
            "        self.queue = list(view.graph.tasks)\n"
        )
        violations = lint(
            tmp_path, src, filename="repro/schedulers/eagerish.py"
        )
        assert "API004" not in codes(violations)

    def test_silent_outside_schedulers_package(self, tmp_path):
        violations = lint(
            tmp_path, self.BAD, filename="repro/eviction/mine.py"
        )
        assert "API004" not in codes(violations)

    def test_bare_n_gpus_name_read_flagged(self, tmp_path):
        src = (
            "class S:\n"
            "    def prepare(self, view):\n"
            "        n_gpus = view.n_gpus\n"
            "        self.loads = [0.0] * n_gpus\n"
        )
        violations = lint(tmp_path, src, filename="repro/schedulers/s.py")
        assert "API004" in codes(violations)

    def test_shipped_schedulers_pass(self):
        """The acceptance check: every shipped scheduler already
        participates in the device-loss protocol."""
        from pathlib import Path

        import repro.schedulers as pkg
        from repro.check.lint.framework import Linter

        root = Path(pkg.__file__).resolve().parent
        violations = [
            v
            for p in sorted(root.glob("*.py"))
            for v in Linter().lint_file(p)
            if v.code == "API004"
        ]
        assert violations == []
