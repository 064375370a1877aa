"""Sweep measurement containers.

A :class:`Sweep` holds, for each x-axis point (working set size) and each
scheduler, one :class:`Measurement` distilled from a
:class:`repro.simulator.trace.RunResult` — the quantities the paper plots
(GFlop/s with and without scheduling time, transferred MB) plus
diagnostics (loads, evictions, balance).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, ClassVar, Dict, FrozenSet, List, Optional

from repro.simulator.trace import RunResult


@dataclass(frozen=True)
class Measurement:
    """One (scheduler, instance) data point.

    Most fields are simulation-derived and bit-reproducible for a given
    seed (the repo's determinism contract).  The exceptions are listed
    in :attr:`WALL_CLOCK_FIELDS`: they incorporate the host wall-clock
    cost of the static scheduling phase (mHFP packing, hMETIS
    partitioning — what the paper charges as "scheduling time"), so
    they vary slightly between any two runs, serial or parallel.
    :meth:`deterministic_dict` strips them for exact comparisons.
    """

    scheduler: str
    n: int
    working_set_mb: float
    gflops: float
    gflops_with_sched: float
    transfers_mb: float
    loads: int
    evictions: int
    makespan_s: float
    balance: float
    #: modelled (virtual) decision latency summed over GPUs; it is
    #: deterministic, so decision-cost claims read it rather than the
    #: host clock
    virtual_decision_time_s: float

    #: fields tainted by host wall-clock timing of the static scheduling
    #: phase; everything else is deterministic in the seed
    WALL_CLOCK_FIELDS: ClassVar[FrozenSet[str]] = frozenset(
        {"gflops_with_sched"}
    )

    @classmethod
    def from_result(
        cls, result: RunResult, n: int, working_set_mb: float
    ) -> "Measurement":
        return cls(
            scheduler=result.scheduler,
            n=n,
            working_set_mb=working_set_mb,
            gflops=result.gflops,
            gflops_with_sched=result.gflops_with_scheduling,
            transfers_mb=result.total_mb,
            loads=result.total_loads,
            evictions=result.total_evictions,
            makespan_s=result.makespan,
            balance=result.balance_ratio(),
            virtual_decision_time_s=result.virtual_decision_time,
        )

    def metric(self, name: str) -> float:
        """Look a metric up by the names used in figure configs."""
        if name == "gflops":
            return self.gflops
        if name == "gflops_with_sched":
            return self.gflops_with_sched
        if name == "transfers_mb":
            return self.transfers_mb
        if name == "loads":
            return float(self.loads)
        raise ValueError(f"unknown metric {name!r}")

    # ------------------------------------------------------------------
    # JSON round-trip (lossless: json floats carry full repr precision,
    # so ``from_dict(json.loads(json.dumps(to_dict())))`` is identity);
    # the sweep cache stores one Measurement per cell
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def deterministic_dict(self) -> Dict[str, Any]:
        """Serialization restricted to the bit-reproducible fields."""
        return {
            k: v
            for k, v in self.to_dict().items()
            if k not in self.WALL_CLOCK_FIELDS
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Measurement":
        kwargs = {f.name: d[f.name] for f in fields(cls)}
        kwargs["n"] = int(kwargs["n"])
        kwargs["loads"] = int(kwargs["loads"])
        kwargs["evictions"] = int(kwargs["evictions"])
        return cls(**kwargs)


@dataclass
class Series:
    """One scheduler's curve over the sweep."""

    scheduler: str
    points: List[Measurement] = field(default_factory=list)

    def xs(self) -> List[float]:
        return [p.working_set_mb for p in self.points]

    def values(self, metric: str) -> List[float]:
        return [p.metric(metric) for p in self.points]

    def mean(self, metric: str) -> float:
        vals = self.values(metric)
        return sum(vals) / len(vals) if vals else 0.0


@dataclass
class Sweep:
    """All curves of one figure."""

    title: str
    series: Dict[str, Series] = field(default_factory=dict)
    reference_lines: Dict[str, float] = field(default_factory=dict)
    reference_curves: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, m: Measurement) -> None:
        self.series.setdefault(m.scheduler, Series(m.scheduler)).points.append(m)

    def schedulers(self) -> List[str]:
        return list(self.series)

    def gain(
        self, metric: str, a: str, b: str, last_k: Optional[int] = None
    ) -> float:
        """Average ratio ``a / b`` of a metric across the sweep.

        ``last_k`` restricts the average to the most constrained points
        (the tail of the sweep), mirroring how the paper quotes e.g.
        "DARTS+LUF achieves 8.5 % more GFlop/s than DMDAR".
        """
        sa = self.series[a].values(metric)
        sb = self.series[b].values(metric)
        if len(sa) != len(sb) or not sa:
            raise ValueError("series are not aligned")
        if last_k is not None:
            sa, sb = sa[-last_k:], sb[-last_k:]
        ratios = [x / y for x, y in zip(sa, sb) if y > 0]
        return sum(ratios) / len(ratios)

    def _layout(
        self, point: Callable[[Measurement], Dict[str, Any]]
    ) -> Dict[str, Any]:
        """The one serialized layout, each point written by ``point``;
        series keep their insertion order."""
        return {
            "title": self.title,
            "series": [
                {"scheduler": s.scheduler, "points": [point(p) for p in s.points]}
                for s in self.series.values()
            ],
            "reference_lines": dict(self.reference_lines),
            "reference_curves": {
                k: list(v) for k, v in self.reference_curves.items()
            },
        }

    def to_dict(self) -> Dict[str, Any]:
        """Serialize every field of every point."""
        return self._layout(Measurement.to_dict)

    def deterministic_dict(self) -> Dict[str, Any]:
        """Like :meth:`to_dict`, restricted to bit-reproducible fields.

        Two sweeps of the same spec — serial, parallel with any worker
        count, or cache-served — are equal under this projection; the
        full ``to_dict`` additionally matches when both runs drew their
        cells from the same cache entries.
        """
        return self._layout(Measurement.deterministic_dict)
