"""Common base class for online eviction policies."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Set

from repro.simulator.memory import EvictionPolicyProtocol

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schedulers.base import Scheduler
    from repro.simulator.runtime import RuntimeView


#: the callable surface :class:`repro.simulator.memory.DeviceMemory`
#: drives; ``choose_victim`` is the only method subclasses *must*
#: override, the hooks have no-op defaults (``on_device_lost`` lets a
#: policy drop cross-device state after an injected GPU failure)
REQUIRED_API = (
    "choose_victim",
    "on_insert",
    "on_access",
    "on_evict",
    "on_device_lost",
)


def validate_policy_class(cls: type, name: str = "") -> list:
    """Audit one policy class against the eviction API.

    Returns a list of problem strings (empty when conformant): the class
    must subclass :class:`EvictionPolicyProtocol`, override
    ``choose_victim``, expose every hook of :data:`REQUIRED_API`, carry a
    concrete ``name``, and accept the ``(gpu, view, scheduler)``
    constructor used by :func:`repro.eviction.make_policy`.
    """
    import inspect

    label = name or cls.__name__
    problems = []
    if not (isinstance(cls, type) and issubclass(cls, EvictionPolicyProtocol)):
        problems.append(
            f"policy {label!r} is not an EvictionPolicyProtocol subclass"
        )
        return problems
    # Both abstract bases raise NotImplementedError; neither counts as an
    # implementation.  (EvictionPolicy is defined below; by the time this
    # function can run the module is fully loaded.)
    if cls.choose_victim in (
        EvictionPolicyProtocol.choose_victim,
        EvictionPolicy.choose_victim,
    ):
        problems.append(f"policy {label!r} does not override choose_victim()")
    for method in REQUIRED_API:
        if not callable(getattr(cls, method, None)):
            problems.append(f"policy {label!r} is missing {method}()")
    if not getattr(cls, "name", "") or cls.name == "abstract":
        problems.append(f"policy {label!r} has no concrete name attribute")
    try:
        sig = inspect.signature(cls)
        sig.bind(gpu=0, view=None, scheduler=None)
    except TypeError as exc:
        problems.append(
            f"policy {label!r} does not accept (gpu, view, scheduler): {exc}"
        )
    return problems


class EvictionPolicy(EvictionPolicyProtocol):
    """Per-GPU policy with access to the runtime view and the scheduler.

    Subclasses override :meth:`choose_victim` plus any notification hooks
    (:meth:`on_insert`, :meth:`on_access`, :meth:`on_evict`).  The memory
    manager guarantees ``candidates`` is non-empty and contains only
    present, unpinned data.
    """

    name = "abstract"

    def __init__(
        self,
        gpu: int,
        view: Optional["RuntimeView"] = None,
        scheduler: Optional["Scheduler"] = None,
    ) -> None:
        self.gpu = gpu
        self.view = view
        self.scheduler = scheduler

    def choose_victim(self, candidates: Set[int]) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(gpu={self.gpu})"
