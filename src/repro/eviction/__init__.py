"""Online eviction policies for the simulated GPU memories.

* :class:`LruPolicy` — StarPU's default, used by every scheduler in the
  paper except DARTS+LUF;
* :class:`FifoPolicy`, :class:`RandomPolicy` — ablation baselines;
* :class:`OnlineBeladyPolicy` — Belady's rule applied to the *known*
  remaining order of a static scheduler (offline-optimal reference);
* :class:`LufPolicy` — the paper's Least Used in the Future policy
  (Algorithm 6), driven by DARTS's ``plannedTasks`` and the runtime's
  ``taskBuffer``.

Policies are instantiated per GPU by :func:`make_policy`, the one
registry of eviction rules: the simulator's memories and the analytic
replay of :func:`repro.core.schedule.replay_schedule` both build their
policies here.  Belady's rule itself is
:func:`repro.core.belady.belady_victim`.
"""

from repro.eviction.base import EvictionPolicy
from repro.eviction.lru import LruPolicy
from repro.eviction.fifo import FifoPolicy
from repro.eviction.random_policy import RandomPolicy
from repro.eviction.belady_online import OnlineBeladyPolicy
from repro.eviction.luf import LufPolicy

_BY_NAME = {
    "lru": LruPolicy,
    "fifo": FifoPolicy,
    "random": RandomPolicy,
    "belady": OnlineBeladyPolicy,
    "luf": LufPolicy,
}

POLICY_NAMES = tuple(sorted(_BY_NAME))


def make_policy(name, gpu, view, scheduler):
    """Build the eviction policy ``name`` for GPU ``gpu``.

    ``name`` is one of :data:`POLICY_NAMES` or an :class:`EvictionPolicy`
    subclass.  ``view`` is the :class:`repro.simulator.runtime.RuntimeView`
    (or the analytic replay's view of a fixed σ); ``scheduler`` is passed
    so LUF can read ``planned_tasks`` and OnlineBelady can read
    ``remaining_order``.
    """
    cls = name if isinstance(name, type) else _BY_NAME.get(name)
    if cls is None:
        raise ValueError(
            f"unknown eviction policy {name!r}; expected one of {POLICY_NAMES}"
        )
    return cls(gpu=gpu, view=view, scheduler=scheduler)


__all__ = [
    "EvictionPolicy",
    "LruPolicy",
    "FifoPolicy",
    "RandomPolicy",
    "OnlineBeladyPolicy",
    "LufPolicy",
    "make_policy",
    "POLICY_NAMES",
]
