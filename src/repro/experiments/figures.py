"""One configuration per figure of the paper's evaluation (Figs 3-13).

Two scales are provided:

* ``"small"`` — reduced instance sizes (and, for the 4-GPU figures,
  memory halved to 250 MB/GPU) so a full regeneration of all figures
  runs in minutes while preserving the memory-pressure *ratios* the
  paper sweeps through (both "B fits" and "A and B fit" thresholds are
  crossed);
* ``"paper"`` — the 500 MB/GPU setup with sizes as close to the paper's
  as a pure-Python simulation can reasonably run.

The paper's absolute sizes (up to 300×300 = 90 000 tasks) are not swept
yet: single cells run there, but a whole sweep at those sizes is still
too slow in pure Python, so "paper" tops out earlier; the crossover
structure is unaffected (see EXPERIMENTS.md, deviation 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.core.problem import TaskGraph
from repro.experiments.harness import SweepSpec
from repro.platform.spec import PlatformSpec, tesla_v100_node
from repro.workloads import (
    cholesky_tasks,
    matmul2d,
    matmul3d,
    sparse_matmul2d,
)


@dataclass(frozen=True)
class FigureConfig:
    """Declarative description of one paper figure."""

    figure_id: str
    title: str
    workload: Callable[[int], TaskGraph]
    schedulers: Sequence[str]
    n_gpus: int
    metric: str  # "gflops" or "transfers_mb"
    ns_small: Sequence[int]
    ns_paper: Sequence[int]
    no_sched_time_variants: Sequence[str] = ()
    memory_small: Optional[float] = None  # bytes; None = paper's 500 MB
    unlimited_memory: bool = False
    threshold: Optional[int] = None
    notes: str = ""

    def platform_factory(self, scale: str) -> Callable[[], PlatformSpec]:
        mem = None
        if scale == "small" and self.memory_small is not None:
            mem = self.memory_small

        def factory() -> PlatformSpec:
            if self.unlimited_memory:
                return tesla_v100_node(self.n_gpus, unlimited_memory=True)
            if mem is not None:
                return tesla_v100_node(self.n_gpus, memory_bytes=mem)
            return tesla_v100_node(self.n_gpus)

        return factory

    def spec(self, scale: str = "small") -> SweepSpec:
        if scale not in ("small", "paper"):
            raise ValueError(f"scale must be 'small' or 'paper', got {scale!r}")
        ns = self.ns_small if scale == "small" else self.ns_paper
        return SweepSpec(
            title=f"{self.figure_id}: {self.title} [{scale}]",
            workload=self.workload,
            ns=ns,
            platform=self.platform_factory(scale),
            schedulers=self.schedulers,
            no_sched_time_variants=self.no_sched_time_variants,
            threshold=self.threshold,
        )


_MB = 1e6

FIGURES: Dict[str, FigureConfig] = {}


def _register(cfg: FigureConfig) -> None:
    FIGURES[cfg.figure_id] = cfg


_register(
    FigureConfig(
        figure_id="fig3",
        title="2D matmul, 1 GPU, throughput",
        workload=matmul2d,
        schedulers=["eager", "dmdar", "mhfp", "darts", "darts+luf"],
        no_sched_time_variants=["mhfp"],
        n_gpus=1,
        metric="gflops_with_sched",
        ns_small=[5, 8, 12, 16, 20, 25, 30, 36, 42, 48],
        ns_paper=[5, 10, 16, 25, 34, 45, 60, 75, 90, 110],
        notes="EAGER collapses past 'B fits'; DARTS+LUF near roofline.",
    )
)
_register(
    FigureConfig(
        figure_id="fig4",
        title="2D matmul, 1 GPU, data transfers",
        workload=matmul2d,
        schedulers=["eager", "dmdar", "mhfp", "darts", "darts+luf"],
        n_gpus=1,
        metric="transfers_mb",
        ns_small=[5, 8, 12, 16, 20, 25, 30, 36, 42, 48],
        ns_paper=[5, 10, 16, 25, 34, 45, 60, 75, 90, 110],
        notes="EAGER exceeds the PCI-bus limit curve; DARTS+LUF lowest.",
    )
)
_register(
    FigureConfig(
        figure_id="fig5",
        title="2D matmul, 2 GPUs, simulation (throughput)",
        workload=matmul2d,
        schedulers=[
            "eager",
            "dmdar",
            "mhfp",
            "hmetis+r",
            "darts",
            "darts+luf",
        ],
        n_gpus=2,
        metric="gflops",
        ns_small=[5, 8, 12, 16, 20, 25, 30, 36, 42, 48],
        memory_small=250 * _MB,
        ns_paper=[10, 20, 33, 45, 60, 75, 90, 110, 130],
        notes="Scheduling cost ignored (SimGrid analogue): mHFP shines.",
    )
)
_register(
    FigureConfig(
        figure_id="fig6",
        title="2D matmul, 2 GPUs, real (throughput)",
        workload=matmul2d,
        schedulers=["eager", "dmdar", "hmetis+r", "darts", "darts+luf"],
        no_sched_time_variants=["hmetis+r"],
        n_gpus=2,
        metric="gflops_with_sched",
        ns_small=[5, 8, 12, 16, 20, 25, 30, 36, 42, 48],
        memory_small=250 * _MB,
        ns_paper=[10, 20, 33, 45, 60, 75, 90, 110, 130],
        notes="hMETIS+R shown with and without partitioning time.",
    )
)
_register(
    FigureConfig(
        figure_id="fig7",
        title="2D matmul, 2 GPUs, data transfers",
        workload=matmul2d,
        schedulers=["eager", "dmdar", "hmetis+r", "darts", "darts+luf"],
        n_gpus=2,
        metric="transfers_mb",
        ns_small=[5, 8, 12, 16, 20, 25, 30, 36, 42, 48],
        memory_small=250 * _MB,
        ns_paper=[10, 20, 33, 45, 60, 75, 90, 110, 130],
        notes="DARTS+LUF may transfer more than DMDAR yet win on overlap.",
    )
)
_register(
    FigureConfig(
        figure_id="fig8",
        title="2D matmul, 4 GPUs, real (throughput)",
        workload=matmul2d,
        schedulers=[
            "eager",
            "dmdar",
            "hmetis+r",
            "darts",
            "darts+luf",
            "darts+luf+threshold",
        ],
        no_sched_time_variants=["hmetis+r"],
        n_gpus=4,
        metric="gflops_with_sched",
        ns_small=[10, 18, 26, 33, 42, 50, 60, 70],
        ns_paper=[15, 30, 45, 67, 85, 105, 125],
        memory_small=250 * _MB,
        threshold=10,
        notes="DARTS's scan cost grows with 4 GPUs; +threshold recovers.",
    )
)
_register(
    FigureConfig(
        figure_id="fig9",
        title="2D matmul randomized order, 2 GPUs (throughput)",
        workload=lambda n: matmul2d(n, randomized=True, seed=7),
        schedulers=["eager", "dmdar", "hmetis+r", "darts", "darts+luf"],
        no_sched_time_variants=["hmetis+r"],
        n_gpus=2,
        metric="gflops_with_sched",
        ns_small=[5, 8, 12, 16, 20, 25, 30, 36, 42],
        memory_small=250 * _MB,
        ns_paper=[10, 20, 33, 45, 60, 75, 90],
        notes="DMDAR/EAGER rely on submission order; DARTS+LUF does not.",
    )
)
_register(
    FigureConfig(
        figure_id="fig10",
        title="3D matmul, 4 GPUs, simulation (throughput)",
        workload=matmul3d,
        schedulers=[
            "eager",
            "dmdar",
            "hmetis+r",
            "darts+luf",
            "darts+luf-3inputs",
        ],
        n_gpus=4,
        metric="gflops",
        ns_small=[3, 4, 5, 6, 7, 8, 10, 12],
        ns_paper=[4, 6, 8, 10, 12, 14, 16],
        memory_small=250 * _MB,
        notes="3 inputs/task: the 3inputs variant avoids random starts.",
    )
)
_register(
    FigureConfig(
        figure_id="fig11",
        title="Cholesky task set, 4 GPUs, real (throughput)",
        workload=cholesky_tasks,
        schedulers=[
            "eager",
            "dmdar",
            "hmetis+r",
            "darts+luf",
            "darts+luf-3inputs",
            "darts+luf+opti-3inputs",
        ],
        no_sched_time_variants=["hmetis+r"],
        n_gpus=4,
        metric="gflops_with_sched",
        ns_small=[6, 10, 14, 18, 22, 26],
        ns_paper=[8, 14, 20, 26, 32, 38],
        memory_small=250 * _MB,
        notes="Huge task counts: OPTI bounds DARTS's scan cost.",
    )
)
_register(
    FigureConfig(
        figure_id="fig12",
        title="Sparse 2D matmul, 4 GPUs (throughput)",
        workload=lambda n: sparse_matmul2d(n, density=0.02, seed=3),
        schedulers=[
            "eager",
            "dmdar",
            "hmetis+r",
            "darts+luf",
            "darts+luf+opti",
        ],
        no_sched_time_variants=["hmetis+r"],
        n_gpus=4,
        metric="gflops_with_sched",
        ns_small=[40, 70, 100, 130, 160, 200],
        ns_paper=[60, 120, 180, 240, 300, 360],
        memory_small=250 * _MB,
        notes="High comm/comp ratio; DARTS navigates sparse reuse.",
    )
)
_register(
    FigureConfig(
        figure_id="fig13",
        title="Sparse 2D matmul, no memory limit, 4 GPUs (throughput)",
        workload=lambda n: sparse_matmul2d(n, density=0.02, seed=3),
        schedulers=[
            "eager",
            "dmdar",
            "hmetis+r",
            "darts+luf",
            "darts+luf+opti",
        ],
        no_sched_time_variants=["hmetis+r"],
        n_gpus=4,
        metric="gflops_with_sched",
        ns_small=[40, 70, 100, 130, 160, 200],
        ns_paper=[60, 120, 180, 240, 300, 360],
        unlimited_memory=True,
        notes="32 GB/GPU: ordering still matters for transfer overlap.",
    )
)
