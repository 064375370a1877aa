"""Platform specification: GPUs, shared bus, and node presets."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.platform.calibration import (
    DEFAULT_GPU_MEMORY_BYTES,
    PCIE_BANDWIDTH_BYTES_PER_S,
    PCIE_LATENCY_S,
    UNLIMITED_GPU_MEMORY_BYTES,
    V100_GEMM_GFLOPS,
)


@dataclass(frozen=True)
class GpuSpec:
    """One accelerator: peak throughput and private memory size."""

    name: str = "V100"
    gflops: float = V100_GEMM_GFLOPS
    memory_bytes: float = DEFAULT_GPU_MEMORY_BYTES

    def __post_init__(self) -> None:
        if self.gflops <= 0:
            raise ValueError("gflops must be positive")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")


@dataclass(frozen=True)
class BusSpec:
    """The shared CPU↔GPU bus (paper Fig. 2).

    ``model`` selects the contention model of the simulator:

    * ``"fair"`` — fluid processor sharing: ``t`` concurrent transfers
      each progress at ``bandwidth / t`` (closest to PCIe behaviour with
      several GPUs pulling at once);
    * ``"fifo"`` — transfers are fully serialised in request order.
    """

    bandwidth: float = PCIE_BANDWIDTH_BYTES_PER_S
    latency: float = PCIE_LATENCY_S
    model: str = "fair"

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.model not in ("fair", "fifo"):
            raise ValueError(f"unknown bus model {self.model!r}")


@dataclass(frozen=True)
class PlatformSpec:
    """A node: homogeneous or heterogeneous GPUs behind one bus.

    ``peer_link`` enables NVLink-style GPU↔GPU copies (the paper's §VI
    extension): when set, a datum already resident on another GPU is
    copied over a per-source peer channel with this spec instead of
    re-fetched from host memory over the shared bus.
    """

    gpus: List[GpuSpec] = field(default_factory=lambda: [GpuSpec()])
    bus: BusSpec = field(default_factory=BusSpec)
    peer_link: Optional[BusSpec] = None

    def __post_init__(self) -> None:
        if not self.gpus:
            raise ValueError("need at least one GPU")

    @property
    def n_gpus(self) -> int:
        return len(self.gpus)

    def homogeneous(self) -> bool:
        first = self.gpus[0]
        return all(g == first for g in self.gpus)


#: NVLink 2.0-class peer bandwidth (bytes/s, per source GPU).
NVLINK_BANDWIDTH_BYTES_PER_S: float = 48e9


def tesla_v100_node(
    n_gpus: int = 1,
    memory_bytes: float = DEFAULT_GPU_MEMORY_BYTES,
    bandwidth: float = PCIE_BANDWIDTH_BYTES_PER_S,
    bus_model: str = "fair",
    unlimited_memory: bool = False,
    nvlink: bool = False,
    nvlink_bandwidth: float = NVLINK_BANDWIDTH_BYTES_PER_S,
) -> PlatformSpec:
    """The paper's evaluation platform.

    ``memory_bytes`` defaults to the 500 MB cap used throughout the
    evaluation; pass ``unlimited_memory=True`` for the Fig. 13 setup
    (full 32 GB per GPU).  ``nvlink=True`` adds peer-to-peer links (the
    paper's §VI extension; off by default to match the evaluation).
    """
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    mem = UNLIMITED_GPU_MEMORY_BYTES if unlimited_memory else memory_bytes
    gpu = GpuSpec(name="V100", memory_bytes=mem)
    return PlatformSpec(
        gpus=[gpu] * n_gpus,
        bus=BusSpec(bandwidth=bandwidth, model=bus_model),
        peer_link=(
            BusSpec(bandwidth=nvlink_bandwidth, latency=2e-6, model="fair")
            if nvlink
            else None
        ),
    )
