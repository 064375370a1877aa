"""Per-layer span accounting for the traced benchmark run.

The traced run wraps the public entry points of each simulator layer
with class-level wrappers installed from here (nothing in ``repro`` is
edited), runs the cells, and removes the wrappers again.  Every wrapped
call opens a span on one stack; a span's *self time* is its duration
minus the time its child spans cover.  The cell itself is the root span
(layer ``other``), so per cell the self times of all layers add up to
the traced wall time of the cell, with nothing counted twice.

Layers are named after the modules they wrap (see :data:`LAYERS`).
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Sequence, Tuple

#: root layer: cell time spent outside every wrapped entry point
OTHER = "other"

#: ``(layer, [(module, class or None for module functions, names)])``.
#: A class target also wraps the same names where a subclass overrides
#: them, so every scheduler, policy and bus model is covered.
LAYERS: Tuple[Tuple[str, Sequence[Tuple[str, object, Sequence[str]]]], ...] = (
    ("kernel", [("repro.simulator.kernel", "RuntimeKernel", ("__init__", "run"))]),
    (
        "engine",
        [
            ("repro.simulator.engine", "SimulationEngine", ("run", "schedule", "schedule_at")),
            ("repro.simulator.engine", "EventHandle", ("cancel",)),
        ],
    ),
    ("events", [("repro.simulator.events", "EventStream", ("publish",))]),
    (
        "memory",
        [
            (
                "repro.simulator.memory",
                "DeviceMemory",
                (
                    "request",
                    "evict",
                    "retry_pending",
                    "pin",
                    "unpin",
                    "allocate_output",
                    "mark_produced",
                    "touch",
                    # completion entry point, called back by the routing layer
                    "_fetch_done",
                ),
            )
        ],
    ),
    (
        "eviction",
        [
            (
                "repro.simulator.memory",
                "EvictionPolicyProtocol",
                ("choose_victim", "on_insert", "on_access", "on_evict", "on_device_lost"),
            )
        ],
    ),
    ("prefetch", [("repro.simulator.prefetch", "Prefetcher", ("fill_buffer", "admit"))]),
    (
        "worker",
        [("repro.simulator.worker", "Worker", ("try_start", "_gate_expired", "_on_task_done"))],
    ),
    (
        "routing",
        [
            ("repro.simulator.routing", "TransferRouter", ("submit",)),
            ("repro.simulator.bus", "Bus", ("submit", "_on_completion", "_finish")),
        ],
    ),
    ("schedulers.prepare", [("repro.schedulers.base", "Scheduler", ("prepare",))]),
    ("schedulers.decide", [("repro.schedulers.base", "Scheduler", ("next_task",))]),
    (
        "schedulers.hooks",
        [
            (
                "repro.schedulers.base",
                "Scheduler",
                ("task_done", "on_data_loaded", "on_fetch_issued", "on_data_evicted", "on_device_lost"),
            )
        ],
    ),
    (
        "view",
        [
            (
                "repro.simulator.view",
                "RuntimeView",
                (
                    "now",
                    "n_gpus",
                    "has_dependencies",
                    "is_alive",
                    "alive_gpus",
                    "present",
                    "held",
                    "holds",
                    "missing_inputs",
                    "missing_bytes",
                    "task_buffer",
                    "is_released",
                    "capacity",
                    "gpu_gflops",
                    "bus_bandwidth",
                ),
            )
        ],
    ),
    # the static phases are module functions looked up by their callers
    ("partitioning", [("repro.schedulers.partition", None, ("partition_tasks",))]),
    ("packer", [("repro.schedulers.hfp", None, ("hfp_pack",))]),
)

#: modules whose import registers every subclass the class targets cover
_SUBCLASS_MODULES = ("repro.schedulers", "repro.eviction", "repro.simulator.fabric")


def _class_tree(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _class_tree(sub) if c not in out)
    return out


class Spans:
    """Span stack and per-layer totals fed by the installed wrappers.

    ``keep`` bounds the span log kept in memory per cell (spans beyond
    it still count in every total, and are reported as dropped).
    """

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, keep: int = 50_000
    ) -> None:
        self.layers: List[str] = [OTHER] + [name for name, _ in LAYERS]
        self._clock = clock
        self._keep = keep
        #: open spans: ``[layer index, start, child time, span id]``
        self._stack: List[list] = []
        self._opened = 0
        #: per layer: self seconds and spans, for the current cell
        self.self_s: List[float] = [0.0] * len(self.layers)
        self.spans_per_layer: List[int] = [0] * len(self.layers)
        #: per entry point (``Base.method`` of a :data:`LAYERS` target,
        #: summed over subclasses, or the bare function name):
        #: ``[calls, empty results]``, where a result is empty when it is
        #: ``None`` or ``False``
        self.entries: Dict[str, List[int]] = {}
        #: kept spans of the current cell: ``(id, parent, layer, start, end)``
        self.log: List[Tuple[int, int, int, float, float]] = []
        self.dropped = 0
        #: start and duration of the last root span (the cell)
        self.root_start = 0.0
        self.root_s = 0.0
        self._undo: List[Tuple[object, str, object]] = []

    # -- the stack ----------------------------------------------------
    def enter(self, layer: int) -> None:
        self._stack.append([layer, self._clock(), 0.0, self._opened])
        self._opened += 1

    def exit(self) -> None:
        end = self._clock()
        layer, start, child, sid = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        self.spans_per_layer[layer] += 1
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += duration
            parent = top[3]
        else:
            self.root_start, self.root_s = start, duration
        if len(self.log) < self._keep or parent < 0:
            self.log.append((sid, parent, layer, start, end))
        else:
            self.dropped += 1

    def reset(self) -> None:
        """Zero the per-cell totals and the span log (between cells)."""
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.self_s = [0.0] * len(self.layers)
        self.spans_per_layer = [0] * len(self.layers)
        for counts in self.entries.values():
            counts[0] = counts[1] = 0
        self.log = []
        self.dropped = 0
        self._opened = 0

    # -- wrappers -----------------------------------------------------
    def _wrap(self, fn: Callable, layer: int, key: str) -> Callable:
        spans = self
        counts = self.entries.setdefault(key, [0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[0] += 1
            spans.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.exit()
            if result is None or result is False:
                counts[1] += 1
            return result

        return wrapper

    def _patch(self, owner: object, name: str, layer: int, key: str) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if isinstance(original, property):
            patched: object = property(self._wrap(original.fget, layer, key))
        else:
            patched = self._wrap(original, layer, key)
        setattr(owner, name, patched)
        self._undo.append((owner, name, original))

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS`.

        Raises ``RuntimeError`` if a layer would end up with no entry
        point, so a renamed layer cannot silently vanish from the trace.
        """
        if self._undo:
            raise RuntimeError("wrappers already installed")
        for mod in _SUBCLASS_MODULES:
            importlib.import_module(mod)
        for layer, (name, targets) in enumerate(LAYERS, start=1):
            wrapped = 0
            for module_name, owner_name, methods in targets:
                module = importlib.import_module(module_name)
                if owner_name is None:
                    for m in methods:
                        if hasattr(module, m):
                            self._patch(module, m, layer, m)
                            wrapped += 1
                    continue
                for cls in _class_tree(getattr(module, owner_name)):
                    for m in methods:
                        if m in cls.__dict__:
                            self._patch(cls, m, layer, f"{owner_name}.{m}")
                            wrapped += 1
            if not wrapped:
                self.uninstall()
                raise RuntimeError(f"layer {name!r}: no entry point found")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
