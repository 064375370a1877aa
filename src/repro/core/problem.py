"""Bipartite model of tasks sharing input data (paper Section III).

Tasks ``T = {T_1..T_m}`` and data ``D = {D_1..D_n}`` form a bipartite graph
``G = (T ∪ D, E)`` where an edge ``(T_i, D_j)`` means task ``T_i`` reads
``D_j``.  Tasks are otherwise independent.  The paper's base model assumes
equal data sizes and equal task durations; both generalisations mentioned in
the paper (heterogeneous sizes/durations) are supported by the ``size`` and
``flops`` attributes.

Identifiers are dense integers (``Task.id`` indexes ``TaskGraph.tasks``,
``Data.id`` indexes ``TaskGraph.data``) so that schedulers can use plain
lists/arrays keyed by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Data:
    """One input datum ``D_j`` (e.g. a block-row of a matrix).

    Attributes
    ----------
    id:
        Dense index into :attr:`TaskGraph.data`.
    size:
        Size in bytes.  The paper's base model uses a single common size.
    name:
        Optional human-readable label (e.g. ``"A[3]"``).
    """

    id: int
    size: float
    name: str = ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or f"D{self.id}"
        return f"Data({label}, {self.size:.0f}B)"


@dataclass(frozen=True)
class Task:
    """One task ``T_i`` with its input data set ``D(T_i)``.

    Attributes
    ----------
    id:
        Dense index into :attr:`TaskGraph.tasks`; also the submission order.
    inputs:
        Ids of the input data, in no particular order, without duplicates.
    flops:
        Work of the task in floating-point operations; drives the simulated
        duration.  Equal for all tasks in the paper's base model.
    name:
        Optional label (e.g. ``"C[2,5]"`` or ``"GEMM(1,2,3)"``).
    outputs:
        Ids of data this task *produces* (the paper's output extension;
        empty in the base model).  An output datum starts nowhere — it
        occupies GPU memory during execution and is written back to the
        host afterwards.
    """

    id: int
    inputs: Tuple[int, ...]
    flops: float
    name: str = ""
    outputs: Tuple[int, ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or f"T{self.id}"
        return f"Task({label}, in={list(self.inputs)})"


class TaskGraph:
    """The bipartite sharing graph ``G = (T ∪ D, E)``.

    Build incrementally with :meth:`add_data` and :meth:`add_task`.  The
    task id order is the submission order used by schedulers that rely on
    it (EAGER, DMDA).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.tasks: List[Task] = []
        self.data: List[Data] = []
        # data id -> ids of tasks using it, in submission order
        self._users: List[List[int]] = []
        # data id -> producing task id (output extension)
        self._producer: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_data(self, size: float, name: str = "") -> Data:
        """Create a new datum of ``size`` (whole) bytes and return it."""
        if size <= 0:
            raise ValueError(f"data size must be positive, got {size}")
        if not float(size).is_integer():
            raise ValueError(
                f"data size must be a whole number of bytes, got {size}"
            )
        d = Data(id=len(self.data), size=float(size), name=name)
        self.data.append(d)
        self._users.append([])
        return d

    def add_task(
        self,
        inputs: Iterable[object],
        flops: float,
        name: str = "",
        outputs: Iterable[object] = (),
    ) -> Task:
        """Create a task reading ``inputs`` and producing ``outputs``.

        Each datum has at most one producer, and a task cannot read the
        datum it produces.
        """
        ids: List[int] = []
        seen = set()
        for x in inputs:
            did = x.id if isinstance(x, Data) else int(x)
            if did < 0 or did >= len(self.data):
                raise ValueError(f"unknown data id {did}")
            if did in seen:
                raise ValueError(f"duplicate input data id {did}")
            seen.add(did)
            ids.append(did)
        if not ids:
            raise ValueError("a task needs at least one input datum")
        if flops <= 0:
            raise ValueError(f"task flops must be positive, got {flops}")
        out_ids: List[int] = []
        for x in outputs:
            did = x.id if isinstance(x, Data) else int(x)
            if did < 0 or did >= len(self.data):
                raise ValueError(f"unknown output data id {did}")
            if did in seen or did in out_ids:
                raise ValueError(
                    f"datum {did} cannot be both input and output "
                    "(or listed twice)"
                )
            if did in self._producer:
                raise ValueError(
                    f"datum {did} already produced by task "
                    f"{self._producer[did]}"
                )
            out_ids.append(did)
        t = Task(
            id=len(self.tasks),
            inputs=tuple(ids),
            flops=float(flops),
            name=name,
            outputs=tuple(out_ids),
        )
        self.tasks.append(t)
        for did in ids:
            self._users[did].append(t.id)
        for did in out_ids:
            self._producer[did] = t.id
        return t

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def n_data(self) -> int:
        return len(self.data)

    def inputs_of(self, task_id: int) -> Tuple[int, ...]:
        """``D(T_i)`` as a tuple of data ids."""
        return self.tasks[task_id].inputs

    def users_of(self, data_id: int) -> Sequence[int]:
        """Ids of tasks that read ``data_id``, in submission order."""
        return self._users[data_id]

    def degree(self, data_id: int) -> int:
        """Number of tasks sharing ``data_id``."""
        return len(self._users[data_id])

    def footprint_bytes(self, task_ids: Iterable[int]) -> float:
        """Bytes of the union of inputs of ``task_ids`` (package footprint)."""
        seen: set = set()
        for t in task_ids:
            seen.update(self.tasks[t].inputs)
        return sum(self.data[d].size for d in seen)

    @property
    def total_flops(self) -> float:
        return sum(t.flops for t in self.tasks)

    @property
    def working_set_bytes(self) -> float:
        """Total bytes of all distinct input data (the paper's x-axis)."""
        return sum(d.size for d in self.data)

    def uniform_data_size(self) -> Optional[float]:
        """The common data size if all data are equal-sized, else ``None``."""
        if not self.data:
            return None
        s = self.data[0].size
        return s if all(d.size == s for d in self.data) else None

    def max_task_arity(self) -> int:
        """Largest number of inputs of any task."""
        return max((len(t.inputs) for t in self.tasks), default=0)

    def producer_of(self, data_id: int) -> Optional[int]:
        """Task producing ``data_id``, or ``None`` for initial data."""
        return self._producer.get(data_id)

    def is_produced(self, data_id: int) -> bool:
        """Whether ``data_id`` is a task output (not initially in host
        memory)."""
        return data_id in self._producer

    @property
    def has_outputs(self) -> bool:
        return bool(self._producer)

    def outputs_of(self, task_id: int) -> Tuple[int, ...]:
        return self.tasks[task_id].outputs

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"TaskGraph({label} m={self.n_tasks} tasks, n={self.n_data} data)"

    # ------------------------------------------------------------------
    # consistency
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency; raises ``AssertionError`` on bugs."""
        assert len(self._users) == len(self.data)
        for t in self.tasks:
            assert len(set(t.inputs)) == len(t.inputs)
            for d in t.inputs:
                assert t.id in self._users[d]
        for did, users in enumerate(self._users):
            for t in users:
                assert did in self.tasks[t].inputs
        for did, t in self._producer.items():
            assert did in self.tasks[t].outputs

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------
    def clique_expansion(self) -> Dict[Tuple[int, int], float]:
        """METIS-style graph model of data sharing (paper §IV-B).

        Returns edge weights between task pairs: for each datum shared by
        ``k`` tasks, every pair among them gets the datum's size added —
        which is exactly the triple-counting weakness the paper describes
        for data shared by three or more tasks.
        """
        edges: Dict[Tuple[int, int], float] = {}
        for did, users in enumerate(self._users):
            w = self.data[did].size
            for i in range(len(users)):
                for j in range(i + 1, len(users)):
                    a, b = users[i], users[j]
                    key = (a, b) if a < b else (b, a)
                    edges[key] = edges.get(key, 0.0) + w
        return edges
