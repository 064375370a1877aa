"""Deterministic fault injection: the plan the runtime executes against.

Production multi-GPU nodes lose devices, corrupt transfers, and grow
stragglers; a runtime that only ever sees a healthy platform produces a
wrong or hung schedule the first time one of those happens.  This module
defines the **fault plan** — a frozen, serializable description of what
goes wrong and when — that :class:`repro.simulator.kernel.RuntimeKernel`
executes against:

* :class:`DeviceFailure` — GPU ``gpu`` dies at virtual time ``time``:
  its in-flight task is cancelled, its memory replicas are lost, and its
  running + buffered tasks are requeued through the scheduler's
  ``on_device_lost`` hook;
* :class:`TransferCorruption` — every fetch completion is
  corrupted with probability ``probability`` and retried with bounded
  exponential backoff (see
  :class:`repro.simulator.routing.RetryingRouter`);
* :class:`StragglerSlowdown` — GPU ``gpu`` computes ``factor``× slower
  than its spec (transfers are unaffected).

Determinism contract: all randomness is drawn from one
``random.Random(plan.seed)`` owned by the injection layer — the
scheduler rng is untouched — so a fixed plan yields a byte-identical
trace digest, and an **empty** plan leaves every digest byte-identical
to an un-faulted run (no wrapper is installed, no draw is made, no
event is published).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class DeviceFailure:
    """GPU ``gpu`` fails permanently at virtual time ``time``."""

    gpu: int
    time: float


@dataclass(frozen=True)
class TransferCorruption:
    """Transient transfer corruption applied to every fetch.

    Each completed fetch is corrupted with ``probability``; a corrupted
    transfer is retried after ``backoff_base * backoff_factor**(attempt-1)``
    virtual seconds.  After ``max_retries`` failed attempts the next
    attempt is forced to succeed — the model degrades gracefully instead
    of livelocking the simulation on an unlucky seed.
    """

    probability: float
    max_retries: int = 5
    backoff_base: float = 1e-4
    backoff_factor: float = 2.0


@dataclass(frozen=True)
class StragglerSlowdown:
    """GPU ``gpu`` computes ``factor``× slower than its spec."""

    gpu: int
    factor: float


@dataclass(frozen=True)
class FaultPlan:
    """Everything that goes wrong in one simulated run, and when."""

    seed: int = 0
    device_failures: Tuple[DeviceFailure, ...] = ()
    transfer_faults: Optional[TransferCorruption] = None
    stragglers: Tuple[StragglerSlowdown, ...] = field(default_factory=tuple)

    def is_empty(self) -> bool:
        """True when the plan injects nothing (runs must be byte-identical
        to a fault-free run)."""
        return (
            not self.device_failures
            and self.transfer_faults is None
            and not self.stragglers
        )

    def validate(self, n_gpus: int) -> None:
        """Reject plans the recovery machinery cannot honor."""
        seen = set()
        for f in self.device_failures:
            if not 0 <= f.gpu < n_gpus:
                raise ValueError(
                    f"device failure targets GPU {f.gpu} but the platform "
                    f"has {n_gpus}"
                )
            if f.time < 0:
                raise ValueError(f"device failure time {f.time!r} < 0")
            if f.gpu in seen:
                raise ValueError(f"GPU {f.gpu} fails twice in the plan")
            seen.add(f.gpu)
        if len(seen) >= n_gpus and n_gpus > 0:
            raise ValueError(
                "the plan kills every GPU; at least one must survive"
            )
        tf = self.transfer_faults
        if tf is not None:
            if not 0.0 <= tf.probability < 1.0:
                raise ValueError(
                    f"corruption probability {tf.probability!r} not in [0, 1)"
                )
            if tf.max_retries < 0:
                raise ValueError("max_retries must be >= 0")
            if tf.backoff_base < 0 or tf.backoff_factor <= 0:
                raise ValueError("backoff parameters must be positive")
        for s in self.stragglers:
            if not 0 <= s.gpu < n_gpus:
                raise ValueError(
                    f"straggler targets GPU {s.gpu} but the platform "
                    f"has {n_gpus}"
                )
            if s.factor <= 0:
                raise ValueError(f"straggler factor {s.factor!r} must be > 0")

    # ------------------------------------------------------------------
    # serialization (CLI --fault-plan, experiment cache keys)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible dict; stable keys for cache fingerprinting."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        failures = tuple(
            DeviceFailure(**f) for f in payload.get("device_failures", ())
        )
        tf = payload.get("transfer_faults")
        stragglers = tuple(
            StragglerSlowdown(**s) for s in payload.get("stragglers", ())
        )
        return cls(
            seed=int(payload.get("seed", 0)),
            device_failures=failures,
            transfer_faults=(
                TransferCorruption(**tf) if tf is not None else None
            ),
            stragglers=stragglers,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def load_fault_plan(source: str) -> FaultPlan:
    """Parse a fault plan from inline JSON or a JSON file path."""
    text = source.strip()
    if not text.startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return FaultPlan.from_json(text)


__all__ = [
    "DeviceFailure",
    "FaultPlan",
    "StragglerSlowdown",
    "TransferCorruption",
    "load_fault_plan",
]
