"""Random bipartite instances for stress and property-based tests."""

from __future__ import annotations

import random
from repro.core.problem import TaskGraph


def random_bipartite(
    n_tasks: int,
    n_data: int,
    arity: int = 2,
    data_size: float = 1.0,
    task_flops: float = 1.0,
    seed: int = 0,
    heterogeneous_sizes: bool = False,
) -> TaskGraph:
    """``n_tasks`` tasks each reading ``arity`` distinct random data.

    Every datum is used at least once when ``n_data ≤ n_tasks × arity``
    is not guaranteed — unused data are permitted (they simply never
    transfer).  ``heterogeneous_sizes`` draws sizes in [0.5, 2.0]×size,
    rounded to whole bytes (at least 1), to exercise the byte-capacity
    code paths.
    """
    if n_tasks < 1 or n_data < 1:
        raise ValueError("need at least one task and one datum")
    if arity > n_data:
        raise ValueError("arity cannot exceed the number of data")
    rng = random.Random(seed)
    g = TaskGraph(name=f"random(m={n_tasks}, n={n_data}, arity={arity})")
    for d in range(n_data):
        size = (
            max(1, round(data_size * rng.uniform(0.5, 2.0)))
            if heterogeneous_sizes
            else data_size
        )
        g.add_data(size, name=f"D{d}")
    for t in range(n_tasks):
        inputs = rng.sample(range(n_data), arity)
        g.add_task(inputs, flops=task_flops, name=f"T{t}")
    return g
