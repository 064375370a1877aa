"""Dependency sets over task graphs."""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.problem import TaskGraph


class CycleError(Exception):
    """The dependency relation is not a DAG."""


class DependencySet:
    """Precedence constraints ``pred → succ`` over task ids.

    Tasks absent from any edge are sources (released immediately).
    """

    def __init__(
        self, n_tasks: int, edges: Iterable[Tuple[int, int]] = ()
    ) -> None:
        if n_tasks < 0:
            raise ValueError("n_tasks must be >= 0")
        self.n_tasks = n_tasks
        self.preds: List[Set[int]] = [set() for _ in range(n_tasks)]
        self.succs: List[Set[int]] = [set() for _ in range(n_tasks)]
        for pred, succ in edges:
            self.add_edge(pred, succ)

    def add_edge(self, pred: int, succ: int) -> None:
        if not (0 <= pred < self.n_tasks and 0 <= succ < self.n_tasks):
            raise ValueError(f"edge ({pred}, {succ}) out of range")
        if pred == succ:
            raise CycleError(f"self-dependency on task {pred}")
        self.preds[succ].add(pred)
        self.succs[pred].add(succ)

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.succs)

    def indegrees(self) -> List[int]:
        return [len(p) for p in self.preds]

    def sources(self) -> List[int]:
        return [t for t in range(self.n_tasks) if not self.preds[t]]

    def topological_order(self) -> List[int]:
        """Kahn's algorithm; raises :class:`CycleError` on cycles."""
        indeg = self.indegrees()
        ready = deque(t for t in range(self.n_tasks) if indeg[t] == 0)
        out: List[int] = []
        while ready:
            t = ready.popleft()
            out.append(t)
            for s in sorted(self.succs[t]):
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(out) != self.n_tasks:
            raise CycleError(
                f"dependency cycle: only {len(out)}/{self.n_tasks} tasks "
                "are orderable"
            )
        return out

    def validate(self, graph: Optional[TaskGraph] = None) -> None:
        """Check acyclicity (and size consistency with ``graph``)."""
        if graph is not None and graph.n_tasks != self.n_tasks:
            raise ValueError(
                f"dependency set covers {self.n_tasks} tasks but the graph "
                f"has {graph.n_tasks}"
            )
        self.topological_order()

    def critical_path_flops(self, graph: TaskGraph) -> float:
        """Largest total flops along any dependency chain.

        Divided by a GPU's flop rate this lower-bounds the makespan of
        the dependent-task problem regardless of the GPU count.
        """
        self.validate(graph)
        longest: Dict[int, float] = {}
        for t in self.topological_order():
            base = max(
                (longest[p] for p in self.preds[t]), default=0.0
            )
            longest[t] = base + graph.tasks[t].flops
        return max(longest.values(), default=0.0)

