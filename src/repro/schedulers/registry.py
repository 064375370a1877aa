"""Build schedulers (and their paired eviction policy) from plot names.

The paper's figures label strategies as EAGER, DMDA, DMDAR, mHFP,
hMETIS+R, DARTS, DARTS+LUF, DARTS+LUF-3inputs, DARTS+LUF+OPTI,
DARTS+LUF+OPTI-3inputs, DARTS+LUF+threshold.  All schedulers run on LRU
eviction except the ``+LUF`` DARTS variants (paper §V-A).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.schedulers.base import Scheduler
from repro.schedulers.darts import Darts
from repro.schedulers.dmda import Dmda, Dmdar
from repro.schedulers.eager import Eager
from repro.schedulers.hfp import Mhfp
from repro.schedulers.partition import HmetisR

_FACTORIES: Dict[str, Callable[[], Scheduler]] = {
    "eager": Eager,
    "dmda": Dmda,
    "dmdar": Dmdar,
    "mhfp": Mhfp,
    "hmetis+r": HmetisR,
    "darts": lambda: Darts(),
    "darts+luf": lambda: Darts(),
    "darts+luf-3inputs": lambda: Darts(three_inputs=True),
    "darts+luf+opti": lambda: Darts(opti=True),
    "darts+luf+opti-3inputs": lambda: Darts(opti=True, three_inputs=True),
}

SCHEDULER_NAMES = tuple(sorted(set(_FACTORIES) | {"darts+luf+threshold"}))


def _canon(name: str) -> str:
    return name.strip().lower().replace(" ", "")


def eviction_for(name: str) -> str:
    """Eviction policy the paper pairs with this strategy."""
    if _canon(name).startswith("darts+luf"):
        return "luf"
    return "lru"


def make_scheduler(
    name: str, threshold: Optional[int] = None
) -> Tuple[Scheduler, str]:
    """Return ``(scheduler, eviction policy name)`` for a plot label.

    ``threshold`` applies to DARTS variants (the Fig. 8 knob); names may
    also carry an explicit ``+threshold`` suffix, in which case a default
    of 10 candidate data per refill is used unless overridden.
    """
    canon = _canon(name)
    explicit = canon.endswith("+threshold")
    base = canon[: -len("+threshold")] if explicit else canon
    factory = _FACTORIES.get(base)
    if factory is None:
        raise ValueError(
            f"unknown scheduler {name!r}; known: {SCHEDULER_NAMES}"
        )
    sched = factory()
    # Display names follow the paper's plot labels.
    sched.name = _DISPLAY.get(base, sched.name)
    if explicit or threshold is not None:
        if not isinstance(sched, Darts):
            raise ValueError(f"threshold only applies to DARTS, got {name!r}")
        sched.threshold = threshold if threshold is not None else 10
        sched.name += "+threshold"
    return sched, eviction_for(base)


def validate_registry() -> list:
    """Audit the factory table against the :class:`Scheduler` contract.

    Returns a list of problem strings (empty when conformant; the test
    suite asserts it is): every registered name must build a
    :class:`Scheduler` subclass that overrides
    :meth:`Scheduler.next_task` and carries a display name.
    """
    problems = []
    for name in sorted(_FACTORIES):
        try:
            sched, eviction = make_scheduler(name)
        except Exception as exc:  # pragma: no cover - registry bug
            problems.append(f"registry name {name!r} failed to build: {exc}")
            continue
        if not isinstance(sched, Scheduler):
            problems.append(
                f"registry name {name!r} built {type(sched).__name__}, "
                "which is not a Scheduler subclass"
            )
            continue
        if type(sched).next_task is Scheduler.next_task:
            problems.append(
                f"registry name {name!r} ({type(sched).__name__}) does not "
                "implement next_task()"
            )
        if not sched.name or sched.name == "abstract":
            problems.append(
                f"registry name {name!r} has no display name"
            )
        from repro.eviction import POLICY_NAMES

        if eviction not in POLICY_NAMES:
            problems.append(
                f"registry name {name!r} pairs unknown eviction policy "
                f"{eviction!r}"
            )
    return problems


_DISPLAY = {
    "eager": "EAGER",
    "dmda": "DMDA",
    "dmdar": "DMDAR",
    "mhfp": "mHFP",
    "hmetis+r": "hMETIS+R",
    "darts": "DARTS",
    "darts+luf": "DARTS+LUF",
    "darts+luf-3inputs": "DARTS+LUF-3inputs",
    "darts+luf+opti": "DARTS+LUF+OPTI",
    "darts+luf+opti-3inputs": "DARTS+LUF+OPTI-3inputs",
}
