"""The benchmark's workloads: named lists of sweep cells.

A cell is one ``(spec, n, scheduler)`` simulation, exactly what a
figure sweep runs through :func:`repro.experiments.harness.run_cell`.
The sizes are the paper-scale points the repository can afford on one
CPU; ``BENCHMARK.json`` records why each workload is in the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

from repro.experiments.harness import SweepSpec, figure_spec
from repro.platform.spec import tesla_v100_node
from repro.workloads import matmul2d


def _matmul2d_outputs(n: int):
    return matmul2d(n, with_outputs=True)


def _outputs_nvlink() -> SweepSpec:
    """2D matmul writing its C tiles, on 4 GPUs x 250 MB with NVLink."""
    return SweepSpec(
        title="mm2d-outputs-nvlink",
        workload=_matmul2d_outputs,
        ns=(40,),
        platform=lambda: tesla_v100_node(4, memory_bytes=250e6, nvlink=True),
        schedulers=("dmdar", "darts+luf"),
    )


#: workload -> ``[(spec factory, n, schedulers, repetitions)]``; a
#: repetition is the sweep's own (another simulation seed), used where a
#: short cell's host time depends on the seed
WORKLOADS: Dict[str, Sequence[Tuple[Callable[[], SweepSpec], int, Sequence[str], int]]] = {
    "mm2d-4gpu": [
        (
            lambda: figure_spec("fig8", scale="paper"),
            125,
            ("eager", "dmdar", "darts+luf", "darts+luf+threshold"),
            1,
        )
    ],
    "cholesky-4gpu": [
        (
            lambda: figure_spec("fig11", scale="paper"),
            38,
            ("darts+luf-3inputs", "darts+luf+opti-3inputs"),
            1,
        )
    ],
    "static-partition": [
        (lambda: figure_spec("fig8", scale="small"), 50, ("hmetis+r",), 1),
        (lambda: figure_spec("fig3", scale="small"), 48, ("mhfp",), 1),
    ],
    "mm2d-outputs-nvlink": [
        (_outputs_nvlink, 40, ("dmdar",), 1),
        (_outputs_nvlink, 40, ("darts+luf",), 3),
    ],
}


@dataclass(frozen=True)
class Cell:
    spec: SweepSpec
    n: int
    scheduler: str
    rep: int = 0

    @property
    def label(self) -> str:
        name = f"{self.spec.title.split(':')[0]} n={self.n} {self.scheduler}"
        return f"{name} rep={self.rep}" if self.rep else name


def cells(workload: str, seed: int) -> List[Cell]:
    """The workload's cells, every sweep spec carrying ``seed``."""
    out = []
    for make_spec, n, schedulers, reps in WORKLOADS[workload]:
        spec = replace(make_spec(), seed=seed)
        out.extend(Cell(spec, n, s, r) for s in schedulers for r in range(reps))
    return out
