"""Discrete-event simulation of a multi-GPU node (SimGrid/StarPU substitute).

The simulator is layered:

* :mod:`repro.simulator.engine` — a deterministic discrete-event core;
* :mod:`repro.simulator.bus`, :mod:`repro.simulator.routing`,
  :mod:`repro.simulator.fabric` and :mod:`repro.simulator.memory` — the
  contended resources of the paper's platform (shared PCIe bus, optional
  NVLink-style peer links behind one ``TransferRouter`` interface,
  bounded per-GPU memory with pluggable eviction);
* :mod:`repro.simulator.kernel`, :mod:`repro.simulator.worker` and
  :mod:`repro.simulator.prefetch` — a StarPU-like runtime kernel that
  drives pluggable schedulers: per-GPU task buffers (prefetch windows),
  data fetches overlapping execution, task stealing, decision gating;
* :mod:`repro.simulator.events` — the typed :class:`EventStream` every
  layer publishes on; traces and the sanitizer are its subscribers
  (see also :mod:`repro.simulator.view` for the read-only scheduler
  surface).

``simulate(graph, platform, scheduler, ...)`` is the main entry point;
:mod:`repro.simulator.runtime` keeps the stable public facade.
"""

from repro.simulator.engine import EventHandle, SimulationEngine
from repro.simulator.bus import Bus, FairShareBus, FifoBus, make_bus
from repro.simulator.events import EventStream, RuntimeEvent
from repro.simulator.routing import TransferRouter
from repro.simulator.memory import DataState, DeviceMemory, MemoryFullError
from repro.simulator.trace import RunResult, TraceEvent, TraceRecorder
from repro.simulator.kernel import RuntimeKernel
from repro.simulator.runtime import Runtime, RuntimeView, SimulationDeadlock, simulate

__all__ = [
    "SimulationEngine",
    "EventHandle",
    "Bus",
    "FairShareBus",
    "FifoBus",
    "make_bus",
    "EventStream",
    "RuntimeEvent",
    "TransferRouter",
    "DeviceMemory",
    "DataState",
    "MemoryFullError",
    "RuntimeKernel",
    "Runtime",
    "RuntimeView",
    "SimulationDeadlock",
    "simulate",
    "RunResult",
    "TraceEvent",
    "TraceRecorder",
]
