"""All scheduling strategies evaluated in the paper, plus test helpers.

* :class:`Eager` — baseline shared queue in submission order;
* :class:`Dmda` / :class:`Dmdar` — StarPU's Deque Model Data Aware
  scheduler, without/with the Ready reordering (Algorithms 1–2);
* :class:`HmetisR` — hypergraph partitioning + Ready + stealing
  (Algorithm 3), on our from-scratch hMETIS substitute;
* :class:`Mhfp` — multi-GPU Hierarchical Fair Packing (Algorithm 4);
* :class:`Darts` — Data-Aware Reactive Task Scheduling (Algorithm 5)
  with the LUF eviction policy (Algorithm 6) and the 3inputs / OPTI /
  threshold variants;
* :class:`FixedSchedule` — replay a precomputed :class:`repro.core.Schedule`
  through the simulator, in order (used by tests and ablations).

DMDA(R), hMETIS+R, mHFP and FixedSchedule define only their static
phase; :class:`repro.schedulers.ready.ListScheduler` runs their lists.

:func:`make_scheduler` builds any of them from the names used in the
paper's plots (``"eager"``, ``"dmdar"``, ``"hmetis+r"``, ``"mhfp"``,
``"darts"``, ``"darts+luf"``, ``"darts+luf+3inputs"``, ...).
"""

from repro.schedulers.base import Scheduler
from repro.schedulers.eager import Eager
from repro.schedulers.fixed import FixedSchedule
from repro.schedulers.dmda import Dmda, Dmdar
from repro.schedulers.hfp import Hfp, Mhfp, hfp_pack
from repro.schedulers.partition import HmetisR
from repro.schedulers.darts import Darts
from repro.schedulers.registry import SCHEDULER_NAMES, eviction_for, make_scheduler

__all__ = [
    "Scheduler",
    "Eager",
    "FixedSchedule",
    "Dmda",
    "Dmdar",
    "Hfp",
    "Mhfp",
    "hfp_pack",
    "HmetisR",
    "Darts",
    "make_scheduler",
    "eviction_for",
    "SCHEDULER_NAMES",
]
