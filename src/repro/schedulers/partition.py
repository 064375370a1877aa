"""hMETIS+R — hypergraph partitioning + Ready + stealing (Algorithm 3).

The static phase builds a hyperedge per datum over its reader tasks and
partitions the tasks into K balanced parts with minimal shared data
(our from-scratch multilevel partitioner standing in for hMETIS, same
UBfactor/Nruns knobs).  At runtime
(:class:`repro.schedulers.ready.ListScheduler`) each GPU pops from its
own part with Ready reordering; an idle GPU steals half of the most
loaded GPU's remaining tasks from the tail.

The partitioning wall-clock time is measured as ``prepare_time`` and
charged by ``RunResult.gflops_with_scheduling``, reproducing the
paper's pair of curves ("hMETIS+R" vs "hMETIS+R no part. time").
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.partitioning.interface import PartitionResult, partition_tasks
from repro.schedulers.ready import ListScheduler


class HmetisR(ListScheduler):
    """Algorithm 3: hypergraph partition + stealing + Ready."""

    name = "hMETIS+R"
    use_stealing = True

    def __init__(self, ubfactor: float = 1.0, nruns: int = 10, seed: int = 0) -> None:
        super().__init__()
        self.ubfactor = ubfactor
        self.nruns = nruns
        self.seed = seed
        self.partition: Optional[PartitionResult] = None

    def allocate(self, view) -> List[List[int]]:
        self.partition = partition_tasks(
            view.graph,
            view.n_gpus,
            ubfactor=self.ubfactor,
            nruns=self.nruns,
            rng=random.Random(self.seed),
        )
        return self.partition.parts
