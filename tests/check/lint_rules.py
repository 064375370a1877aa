"""The repo's determinism and API lint rules, as plain AST functions.

Determinism rules (``DET``)
    DET001  unseeded ``random`` / ``numpy.random`` use
    DET002  wall-clock reads in simulated code paths
    DET003  order-sensitive iteration over unordered containers
    DET004  ``==`` / ``!=`` on simulated float times

API-conformance rules (``API``)
    API003  scheduler/eviction code must not mutate runtime internals;
            everything goes through the read-only ``RuntimeView``
    API004  scheduler classes deriving per-device state from ``n_gpus``
            must participate in the device-loss protocol
            (``on_device_lost`` / ``drop_gpu``)

Performance rules (``PERF``)
    PERF001 filtered full-dict rescans (``self.X.items()`` under an
            ``if``) in simulator hot paths; maintain the derived set
            incrementally on state transitions instead

Each rule is a function ``(tree, module) -> iterator of (node, message)``
over one parsed module, whose dotted name (``repro.simulator.worker``)
scopes the package-bound rules; :data:`RULES` maps each code to its
function and :func:`lint_source` runs them all.  ``test_rules`` runs
every rule on every file under ``src/repro``.  The scheduler registry
and the eviction policies are audited by ``TestAPIConformance`` calling
``validate_registry`` and ``validate_policy_class`` directly.

The determinism rules exist because every figure in the paper's
evaluation rests on "same seed ⇒ same trace" (DESIGN.md decision 5):
one wall-clock read or one iteration over a ``set`` feeding a
scheduling decision silently breaks bit-identical replay.  Nothing
under ``src`` imports this module.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

#: one rule hit: the offending node and what is wrong with it
Hit = Tuple[ast.AST, str]

#: packages whose code runs *inside* the simulated world — anything
#: nondeterministic here changes simulation results, not just logging
SIMULATED_PACKAGES: Tuple[str, ...] = (
    "repro.simulator",
    "repro.schedulers",
    "repro.eviction",
    "repro.core",
    "repro.dag",
    "repro.workloads",
    "repro.platform",
    "repro.partitioning",
)

#: modules allowed to read ``time.perf_counter`` inside simulated
#: paths: the kernel times ``Scheduler.prepare`` (``RunResult.prepare_time``,
#: never fed back into the simulation).
PERF_COUNTER_WHITELIST: Tuple[str, ...] = ("repro.simulator.kernel",)

#: packages whose per-event code runs once per simulated event — the
#: simulator hot paths the core optimization keeps rescan-free
HOT_PACKAGES: Tuple[str, ...] = (
    "repro.simulator",
    "repro.schedulers",
    "repro.eviction",
)

#: packages whose code consumes the runtime through RuntimeView and is
#: policed by API003 (strategy code must never mutate runtime internals)
VIEW_CONSUMER_PACKAGES: Tuple[str, ...] = (
    "repro.schedulers",
    "repro.eviction",
)


def module_name(path: Path, src_root: Path) -> str:
    """Dotted name of the module at ``path`` under the ``src_root``
    directory that holds the ``repro`` package.

    The name is taken relative to ``src_root`` alone, so directories
    above it (a checkout called ``repro``, say) never enter it.
    """
    parts = list(path.relative_to(src_root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def in_packages(module: str, packages: Tuple[str, ...]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


def _import_aliases(tree: ast.Module, target: str) -> Set[str]:
    """Local names bound to module ``target`` by ``import`` statements."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == target:
                    names.add(alias.asname or alias.name.split(".")[0])
    return names


def _from_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """``{local_name: original_name}`` for ``from module import ...``."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                out[alias.asname or alias.name] = alias.name
    return out


_NUMPY_OK = {"default_rng", "Generator", "RandomState", "SeedSequence"}


def unseeded_random(tree: ast.Module, module: str) -> Iterator[Hit]:
    """DET001: module-level randomness is forbidden; seed an instance.

    ``random.random()``, ``random.choice()``, ... draw from the shared
    module-level generator whose state depends on everything else that
    ran in the process — two runs with the same simulation seed diverge.
    Use ``random.Random(seed)`` (or pass ``rng``) instead.  The same goes
    for ``numpy.random.*`` legacy functions; use ``default_rng(seed)``.
    """
    random_aliases = _import_aliases(tree, "random")
    from_random = _from_imports(tree, "random")
    numpy_aliases = _import_aliases(tree, "numpy") | _import_aliases(
        tree, "numpy.random"
    )
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        # random.<fn>(...) via the module object
        if (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Name)
            and fn.value.id in random_aliases
        ):
            if fn.attr == "Random":
                if not node.args and not node.keywords:
                    yield node, "random.Random() without a seed"
            else:
                yield node, (
                    f"call to module-level random.{fn.attr}(); "
                    "use a seeded random.Random instance"
                )
        # from random import shuffle; shuffle(...)
        elif isinstance(fn, ast.Name) and fn.id in from_random:
            original = from_random[fn.id]
            if original != "Random":
                yield node, (
                    f"call to module-level random.{original}(); "
                    "use a seeded random.Random instance"
                )
        # numpy.random.<fn>(...) / np.random.<fn>(...)
        elif (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Attribute)
            and fn.value.attr == "random"
            and isinstance(fn.value.value, ast.Name)
            and fn.value.value.id in numpy_aliases
            and fn.attr not in _NUMPY_OK
        ):
            yield node, (
                f"call to numpy.random.{fn.attr}(); "
                "use numpy.random.default_rng(seed)"
            )


_BANNED_TIME = {"time", "time_ns", "clock"}
_PERF = {"perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
_BANNED_DATETIME = {"now", "utcnow", "today"}


def wall_clock(tree: ast.Module, module: str) -> Iterator[Hit]:
    """DET002: wall-clock reads make simulated results time-dependent.

    ``time.time()`` / ``datetime.now()`` are forbidden everywhere in the
    package (measure elapsed wall time with ``time.perf_counter()``);
    ``perf_counter`` itself is additionally forbidden inside simulated
    code paths, except the kernel's timing of the static scheduling
    phase (:data:`PERF_COUNTER_WHITELIST`).
    """
    time_aliases = _import_aliases(tree, "time")
    from_time = _from_imports(tree, "time")
    datetime_aliases = _import_aliases(tree, "datetime")
    from_datetime = _from_imports(tree, "datetime")
    simulated = in_packages(module, SIMULATED_PACKAGES)
    perf_ok = not simulated or module in PERF_COUNTER_WHITELIST

    def classify(fn: ast.expr) -> Optional[str]:
        """Return the offending function name, or None."""
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            base, attr = fn.value.id, fn.attr
            if base in time_aliases:
                if attr in _BANNED_TIME:
                    return f"time.{attr}"
                if attr in _PERF and not perf_ok:
                    return f"time.{attr}"
            # datetime.datetime.now() has an Attribute base; handle
            # the common `from datetime import datetime` form here.
            if (
                base in from_datetime
                and from_datetime[base] in {"datetime", "date"}
                and attr in _BANNED_DATETIME
            ):
                return f"datetime.{attr}"
        if (
            isinstance(fn, ast.Attribute)
            and isinstance(fn.value, ast.Attribute)
            and isinstance(fn.value.value, ast.Name)
            and fn.value.value.id in datetime_aliases
            and fn.value.attr in {"datetime", "date"}
            and fn.attr in _BANNED_DATETIME
        ):
            return f"datetime.{fn.value.attr}.{fn.attr}"
        if isinstance(fn, ast.Name) and fn.id in from_time:
            original = from_time[fn.id]
            if original in _BANNED_TIME:
                return f"time.{original}"
            if original in _PERF and not perf_ok:
                return f"time.{original}"
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        offender = classify(node.func)
        if offender is None:
            continue
        if offender.startswith("time.") and offender.split(".")[1] in _PERF:
            yield node, (
                f"{offender}() inside a simulated code path; wall time "
                "must not leak into simulation state (whitelist: "
                + ", ".join(PERF_COUNTER_WHITELIST)
                + ")"
            )
        else:
            yield node, (
                f"{offender}() reads the wall clock; use "
                "time.perf_counter() for elapsed-time measurement "
                "outside simulated paths"
            )


#: DeviceMemory / RuntimeView methods documented to return sets
_SET_RETURNING_METHODS = {
    "present",
    "held",
    "evictable",
    "present_set",
    "held_set",
    "fetching_set",
}

#: builtins whose result does not depend on argument iteration order
_ORDER_INSENSITIVE = {
    "sorted",
    "min",
    "max",
    "sum",
    "len",
    "any",
    "all",
    "set",
    "frozenset",
}

_SET_TYPES = {"Set", "FrozenSet", "AbstractSet", "MutableSet"}


def _is_set_annotation(annotation: Optional[ast.expr]) -> bool:
    if annotation is None:
        return False
    node = annotation
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_TYPES
    if isinstance(node, ast.Name):
        return node.id in _SET_TYPES | {"set", "frozenset"}
    return False


def _set_params(tree: ast.Module) -> Dict[ast.AST, Set[str]]:
    """Per-function names of parameters annotated as sets."""
    out: Dict[ast.AST, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = list(node.args.args) + list(node.args.kwonlyargs)
            names = {a.arg for a in args if _is_set_annotation(a.annotation)}
            if names:
                out[node] = names
    return out


def _is_set_like(expr: ast.expr, enclosing_set_params: Set[str]) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        fn = expr.func
        if isinstance(fn, ast.Name) and fn.id in {"set", "frozenset"}:
            return True
        if isinstance(fn, ast.Attribute) and fn.attr in _SET_RETURNING_METHODS:
            return True
    return isinstance(expr, ast.Name) and expr.id in enclosing_set_params


def unordered_iteration(tree: ast.Module, module: str) -> Iterator[Hit]:
    """DET003: iteration order over a ``set`` must not reach decisions.

    CPython set iteration order depends on insertion history and hash
    randomization of the running build; a scheduling decision derived
    from it (first element, ``rng.choice`` over an unsorted listing, ...)
    is not reproducible across platforms.  Wrap the iterable in
    ``sorted(...)`` or reduce it with an order-insensitive builtin.
    Only order-*sensitive* positions are flagged: ``for`` statements,
    ``list`` comprehensions, and ``list()``/``tuple()`` conversions.
    Set/dict comprehensions and ``sorted``/``min``/``max``/``sum``/
    ``any``/``all`` reductions are fine.
    """
    set_params = _set_params(tree)
    parents: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent

    def enclosing_params(node: ast.AST) -> Set[str]:
        cur: Optional[ast.AST] = node
        while cur is not None:
            if cur in set_params:
                return set_params[cur]
            cur = parents.get(cur)
        return set()

    def flag(node: ast.AST, what: str) -> Hit:
        return node, (
            f"{what} iterates a set in an order-sensitive position; "
            "wrap it in sorted(...) for deterministic order"
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.For) and _is_set_like(
            node.iter, enclosing_params(node)
        ):
            yield flag(node, "for statement")
        elif isinstance(node, ast.ListComp):
            for gen in node.generators:
                if _is_set_like(gen.iter, enclosing_params(node)):
                    yield flag(node, "list comprehension")
        elif isinstance(node, ast.GeneratorExp):
            parent = parents.get(node)
            if (
                isinstance(parent, ast.Call)
                and isinstance(parent.func, ast.Name)
                and parent.func.id in _ORDER_INSENSITIVE
            ):
                continue
            for gen in node.generators:
                if _is_set_like(gen.iter, enclosing_params(node)):
                    yield flag(node, "generator expression")
        elif isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Name)
                and fn.id in {"list", "tuple"}
                and node.args
                and _is_set_like(node.args[0], enclosing_params(node))
            ):
                yield flag(node, f"{fn.id}() conversion")


_TIME_NAMES = {"now", "makespan", "time"}


def _is_time_operand(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr in _TIME_NAMES or node.attr.endswith("_time")
    if isinstance(node, ast.Name):
        return node.id in _TIME_NAMES or node.id.endswith("_time")
    return False


def float_time_equality(tree: ast.Module, module: str) -> Iterator[Hit]:
    """DET004: simulated times are floats; ``==`` on them is fragile.

    Virtual timestamps accumulate floating-point error (bus fair-sharing
    divides bandwidth, durations add); exact equality silently flips with
    any model change.  Compare with a tolerance, or order events with
    ``<=`` / heap sequence numbers.
    """
    if not in_packages(module, SIMULATED_PACKAGES):
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_time_operand(left) or _is_time_operand(right):
                yield node, (
                    "==/!= on a simulated float time; compare with a "
                    "tolerance or order via the event heap"
                )


#: functions where a full rescan is the *point* (one-time setup and
#: verification code), exempt from PERF001
_COLD_NAMES = frozenset({"__init__", "prepare"})
_COLD_PREFIXES = ("check_", "_build", "enable_", "_sanitize")
_COMPS = (ast.SetComp, ast.ListComp, ast.DictComp, ast.GeneratorExp)
_SCANS = {"items", "keys", "values"}


def _is_full_scan(it: ast.expr) -> bool:
    """``self.<attr>.items()``-style calls (and keys/values)."""
    return (
        isinstance(it, ast.Call)
        and not it.args
        and not it.keywords
        and isinstance(it.func, ast.Attribute)
        and it.func.attr in _SCANS
        and isinstance(it.func.value, ast.Attribute)
        and isinstance(it.func.value.value, ast.Name)
        and it.func.value.value.id == "self"
    )


def _rescans(node: ast.AST, in_cold: bool) -> Iterator[Hit]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cold = in_cold or child.name in _COLD_NAMES or any(
                child.name.startswith(p) for p in _COLD_PREFIXES
            )
            yield from _rescans(child, cold)
            continue
        if not in_cold and isinstance(child, _COMPS):
            for gen in child.generators:
                if gen.ifs and _is_full_scan(gen.iter):
                    scan = gen.iter.func  # type: ignore[attr-defined]
                    yield child, (
                        f"filtered rescan of self.{scan.value.attr}."
                        f"{scan.attr}() in a hot path; "
                        "maintain the derived set incrementally "
                        "on state transitions"
                    )
        yield from _rescans(child, in_cold)


def full_rescan(tree: ast.Module, module: str) -> Iterator[Hit]:
    """PERF001: no filtered full-dict rescans in simulator hot paths.

    A comprehension that filters ``self.X.items()`` (or ``.keys()`` /
    ``.values()``) derives a subset of a per-datum/per-task store by
    scanning all of it — O(store) work on a path that runs once per
    simulated event.  The repo's hot-path contract (DESIGN.md, "Modeled
    cost vs implementation speed") is to maintain such derived sets
    incrementally on state transitions and reserve full rescans for
    setup (``__init__``/``prepare``/``_build*``/``enable_*``) and
    verification (``check_*``/``_sanitize*``) code, where this rule
    stays silent.
    """
    if in_packages(module, HOT_PACKAGES):
        yield from _rescans(tree, in_cold=False)


#: names under which strategy code conventionally holds a RuntimeView
_VIEW_NAMES = {"view", "_view"}


def _chain_reaches_view(expr: ast.expr) -> bool:
    """True when an attribute chain bottoms out in a RuntimeView handle
    (``view.x``, ``self.view.x.y``, ``self._view.x``)."""
    node = expr
    while isinstance(node, ast.Attribute):
        if node.attr in _VIEW_NAMES:
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id in _VIEW_NAMES


def runtime_view_mutation(tree: ast.Module, module: str) -> Iterator[Hit]:
    """API003: strategy code must not mutate runtime internals.

    Schedulers and eviction policies are handed a read-only
    :class:`repro.simulator.view.RuntimeView`; the simulation's
    correctness (admission control, pinning, memory accounting) depends
    on the kernel being the only writer of its own state.  Two reaches
    are flagged inside :data:`VIEW_CONSUMER_PACKAGES`:

    * any access to the view's private ``_rt`` kernel handle — even a
      read couples the strategy to kernel internals the view does not
      promise;
    * any assignment / augmented assignment / deletion targeting an
      attribute reached *through* a view (``view.graph.tasks = ...``),
      i.e. mutating shared runtime state behind the read-only surface.
    """
    if not in_packages(module, VIEW_CONSUMER_PACKAGES):
        return
    mutated: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            mutated.extend(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            mutated.append(node.target)
        elif isinstance(node, ast.Delete):
            mutated.extend(node.targets)
        if isinstance(node, ast.Attribute) and node.attr == "_rt":
            yield node, (
                "access to RuntimeView._rt reaches into the runtime "
                "kernel; use the view's query API (or extend it)"
            )
    for target in mutated:
        if isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Attribute) and _chain_reaches_view(
            target.value
        ):
            yield target, (
                "assignment through a RuntimeView mutates runtime "
                "state; the view is read-only by contract"
            )


_HOOKS = {"on_device_lost", "drop_gpu"}
_SCHEDULERS = ("repro.schedulers",)


def _reads_n_gpus(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "n_gpus":
        return True
    return isinstance(node, ast.Name) and node.id == "n_gpus"


def _self_store(node: ast.AST) -> Optional[ast.Attribute]:
    """The ``self.<attr>`` target of an assignment node, if any."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return None
    for target in targets:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target
    return None


def _hooked(tree: ast.Module) -> Set[str]:
    """Names of the classes in ``tree`` that define or inherit a hook,
    the :class:`Scheduler` base's raising default aside."""
    from repro.schedulers.base import Scheduler

    hooked: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not in_packages(module, _SCHEDULERS):
                continue
            for alias in node.names:
                try:  # an unimportable base proves nothing
                    imported = importlib.import_module(module)
                    mro = getattr(imported, alias.name).__mro__
                except (ImportError, AttributeError):
                    continue
                if any(_HOOKS & set(vars(c)) for c in mro if c is not Scheduler):
                    hooked.add(alias.asname or alias.name)
        elif isinstance(node, ast.ClassDef):
            defined = {
                stmt.name
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if defined & _HOOKS or any(
                isinstance(b, ast.Name) and b.id in hooked for b in node.bases
            ):
                hooked.add(node.name)
    return hooked


def device_list_cache(tree: ast.Module, module: str) -> Iterator[Hit]:
    """API004: cached device lists must survive an injected GPU failure.

    A scheduler that sizes internal state from ``n_gpus`` (per-device
    ready lists, plans, load tables) has cached the device list.  After
    the fault-injection layer kills a GPU, that state silently keeps
    routing work to the dead device unless the class participates in
    the recovery protocol.  Any class in ``repro.schedulers`` with a
    method that both reads ``n_gpus`` and stores state on ``self`` must
    therefore define ``on_device_lost`` (or ``drop_gpu``, the equivalent
    contract for shared ready-list containers) in its own body, or
    inherit one from a base that does: a class of the same module, or
    one imported from a ``repro.schedulers`` module.  Inheriting the
    :class:`Scheduler` base's raising default does not count — that is
    precisely the unhandled case.
    """
    if not in_packages(module, _SCHEDULERS):
        return
    hooked = _hooked(tree)
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or cls.name in hooked:
            continue
        for meth in cls.body:
            if not isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            reads = False
            store: Optional[ast.Attribute] = None
            for sub in ast.walk(meth):
                if _reads_n_gpus(sub):
                    reads = True
                if store is None:
                    store = _self_store(sub)
            if reads and store is not None:
                yield store, (
                    f"{cls.name}.{meth.name} sizes state on self from "
                    f"n_gpus, but {cls.name} neither defines nor "
                    "inherits on_device_lost or drop_gpu; the cached "
                    "device list goes stale after an injected GPU "
                    "failure"
                )


RULES: Dict[str, Callable[[ast.Module, str], Iterator[Hit]]] = {
    "DET001": unseeded_random,
    "DET002": wall_clock,
    "DET003": unordered_iteration,
    "DET004": float_time_equality,
    "PERF001": full_rescan,
    "API003": runtime_view_mutation,
    "API004": device_list_cache,
}


def lint_source(source: str, module: str) -> List[Tuple[str, int, str]]:
    """``(code, line, message)`` of every rule hit in one module's
    source, rule by rule in :data:`RULES` order."""
    tree = ast.parse(source)
    return [
        (code, getattr(node, "lineno", 1), message)
        for code, rule in RULES.items()
        for node, message in rule(tree, module)
    ]
