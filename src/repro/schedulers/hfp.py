"""Hierarchical Fair Packing and its multi-GPU adaptation (Algorithm 4).

HFP (prior work [14] of the paper) greedily merges task *packages* that
share the most input data, preferring small packages (fairness), as long
as the merged package's input footprint fits in GPU memory.  A second
phase keeps merging by affinity, ignoring the memory bound, to chain
packages with high data reuse one after the other.  Task order inside a
package is never reshuffled by a merge (lists are concatenated), which
preserves intra-package locality.

mHFP stops the second phase at K packages (one per GPU), balances package
loads by moving tasks from the tail of the heaviest package to the
lightest (the paper notes more communication slack near a package's end),
and at runtime adds Ready reordering and task stealing
(:class:`repro.schedulers.ready.ListScheduler`).

The packing is deliberately *expensive* — a point the paper makes: mHFP's
scheduling time grows quickly with the task count and dominates its
benefit (Figs 3, 5).  Its wall-clock cost here is measured as
``RunResult.prepare_time`` and charged by ``gflops_with_scheduling``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.problem import TaskGraph
from repro.schedulers.ready import ListScheduler


class _Packages:
    """Mergeable task packages with shared-input-weight adjacency.

    The adjacency ``nbr[pid][q]`` (bytes of input data shared between
    packages ``pid`` and ``q``) is maintained *incrementally* on merge
    instead of recomputed from ``pkgs_of`` per push round: absorbing
    ``b`` into ``a`` detaches ``b`` everywhere and, for each datum new
    to ``a``'s footprint, adds its size to the weights with every other
    package holding it.  ``TaskGraph.add_data`` enforces whole-byte
    sizes, so the running float sums are exact, hence bit-equal to a
    fresh recomputation in any order.
    """

    def __init__(self, graph: TaskGraph) -> None:
        self.graph = graph
        sizes = [d.size for d in graph.data]
        n = graph.n_tasks
        #: merged-away packages hold None
        self.tasks: List[Optional[List[int]]] = []
        self.footprint: List[Set[int]] = []
        self.bytes: List[float] = []
        self.load: List[float] = []
        # datum -> set of active package ids whose footprint holds it
        self.pkgs_of: List[Set[int]] = [set() for _ in range(graph.n_data)]
        self.sizes = sizes
        self.n_active = n
        #: task count per package (len of tasks, without the Optional)
        self.ntasks: List[int] = [1] * n
        for t in graph.tasks:
            pid = t.id
            self.tasks.append([t.id])
            fp = set(t.inputs)
            self.footprint.append(fp)
            self.bytes.append(sum(sizes[d] for d in fp))
            self.load.append(t.flops)
            for d in fp:
                self.pkgs_of[d].add(pid)
        # shared-weight adjacency, accumulated per package in
        # footprint-set iteration order
        self.nbr: List[Dict[int, float]] = []
        for pid in range(n):
            w: Dict[int, float] = {}
            for d in self.footprint[pid]:
                sz = sizes[d]
                for q in self.pkgs_of[d]:
                    if q != pid:
                        w[q] = w.get(q, 0.0) + sz
            self.nbr.append(w)

    @property
    def count(self) -> int:
        return self.n_active

    def active_ids(self) -> List[int]:
        return [pid for pid, t in enumerate(self.tasks) if t is not None]

    def union_bytes(self, a: int, b: int, shared: float) -> float:
        return self.bytes[a] + self.bytes[b] - shared

    def merge(self, a: int, b: int) -> List[int]:
        """Absorb package ``b`` into ``a`` (list concatenation).

        Returns ``a``'s partners whose shared weight grew or that are
        new to ``a``; every other partner's weight is unchanged.
        """
        tasks_a = self.tasks[a]
        tasks_b = self.tasks[b]
        assert tasks_a is not None and tasks_b is not None
        tasks_a.extend(tasks_b)
        nbr = self.nbr
        # detach b from the adjacency
        nbr[a].pop(b, None)
        for q in nbr[b]:
            if q != a:
                nbr[q].pop(b, None)
        fp_a = self.footprint[a]
        nbr_a = nbr[a]
        grown: Dict[int, None] = {}
        for d in self.footprint[b]:
            self.pkgs_of[d].discard(b)
            if d not in fp_a:
                fp_a.add(d)
                sz = self.sizes[d]
                self.bytes[a] += sz
                for q in self.pkgs_of[d]:
                    if q != a:
                        if sz > 0 or q not in nbr_a:
                            grown[q] = None
                        nbr_a[q] = nbr_a.get(q, 0.0) + sz
                        nbr_q = nbr[q]
                        nbr_q[a] = nbr_q.get(a, 0.0) + sz
                self.pkgs_of[d].add(a)
        self.load[a] += self.load[b]
        self.ntasks[a] += self.ntasks[b]
        self.tasks[b] = None
        self.footprint[b] = set()
        nbr[b] = {}
        self.n_active -= 1
        return list(grown)


#: (-shared bytes, task count, a, b), a < b
_Entry = Tuple[float, int, int, int]


def _pair_entries(
    pk: _Packages,
    pid: int,
    memory_bound: Optional[float],
    partners: Iterable[Tuple[int, float]],
) -> Iterator[_Entry]:
    """Heap entries pairing ``pid`` with each ``(q, w)`` of ``partners``.

    A pair whose union footprint exceeds ``memory_bound`` is left out:
    footprints only grow, so it never fits again unless its shared
    weight grows, and then ``merge`` reports it for a fresh entry.
    ``w <= 0`` entries are always kept, because popping one ends the
    round.
    """
    ntasks = pk.ntasks
    for q, w in partners:
        a, b = (pid, q) if pid < q else (q, pid)
        if (
            w > 0
            and memory_bound is not None
            and pk.union_bytes(a, b, w) > memory_bound
        ):
            continue
        yield (-w, ntasks[a] + ntasks[b], a, b)


def _pop_least(run: List[_Entry], heap: List[_Entry]) -> _Entry:
    """Pop the least entry of the descending ``run`` and the ``heap``.

    That is the entry one heap holding both would pop: the run's least
    entry is its last, the heap's is its top.
    """
    if heap and (not run or heap[0] < run[-1]):
        return heapq.heappop(heap)
    return run.pop()


def _merge_round(
    pk: _Packages,
    memory_bound: Optional[float],
    stop_at: int,
) -> None:
    """Greedy best-pair merging until the entries dry up or ``stop_at``.

    ``memory_bound`` restricts merges to packages whose combined input
    footprint fits (phase 1); ``None`` lifts the restriction (phase 2).

    The round starts with one entry per pair, built in bulk and sorted
    once in descending order: this run is consumed from its end, and
    entries pushed later go to a heap.  Each step pops the lesser of
    the run's last entry and the heap's top (``_pop_least``), exactly
    the pop order of one heap holding both.

    Entries are re-keyed lazily.  A pair's shared weight ``w`` and task
    count only grow, so an entry whose ``w`` is still current is a lower
    bound on the pair's key; ``merge`` names the partners whose ``w``
    grew, and only those get fresh entries.  A popped entry is checked
    against the pair's current key: if equal, no pending entry can
    beat it and the pair merges — the pair the eager scheme (a fresh
    entry for every neighbour after each merge) would merge; if only
    the task count grew, it is pushed back with the current key unless
    the pair no longer fits (union footprints only grow, so it never
    will again); if ``w`` grew, a fresher entry exists and it is
    dropped.
    """
    run: List[_Entry] = [
        entry
        for pid in pk.active_ids()
        for entry in _pair_entries(
            pk,
            pid,
            memory_bound,
            ((q, w) for q, w in pk.nbr[pid].items() if pid < q),
        )
    ]
    run.sort(reverse=True)
    heap: List[_Entry] = []
    tasks = pk.tasks
    nbr = pk.nbr
    ntasks = pk.ntasks
    while (run or heap) and pk.n_active > stop_at:
        neg_w, count, a, b = _pop_least(run, heap)
        if neg_w >= 0:  # no live pair shares anything any more
            break
        if tasks[a] is None or tasks[b] is None:
            continue
        w = nbr[a][b]
        if -w != neg_w:
            continue  # w grew: that merge pushed a fresh entry if it fit
        count_now = ntasks[a] + ntasks[b]
        if count_now != count:  # a lower bound: re-key it
            if memory_bound is None or pk.union_bytes(a, b, w) <= memory_bound:
                heapq.heappush(heap, (neg_w, count_now, a, b))
            continue
        nbr_a = nbr[a]
        for entry in _pair_entries(
            pk, a, memory_bound, ((q, nbr_a[q]) for q in pk.merge(a, b))
        ):
            heapq.heappush(heap, entry)


def hfp_pack(
    graph: TaskGraph,
    memory_bytes: float,
    k_packages: int,
) -> List[List[int]]:
    """Run HFP packing and return ``k_packages`` ordered task lists.

    Phase 1 merges data-sharing packages under the memory bound; phase 2
    merges by affinity regardless of memory until ``k_packages`` remain;
    any leftover disconnected packages are folded smallest-first.
    """
    if k_packages < 1:
        raise ValueError("k_packages must be >= 1")
    pk = _Packages(graph)
    _merge_round(pk, memory_bytes, stop_at=k_packages)
    if pk.count > k_packages:
        _merge_round(pk, None, stop_at=k_packages)
    # Disconnected leftovers (e.g. sparse instances): fold smallest pairs.
    while pk.count > k_packages:
        ids = sorted(
            pk.active_ids(), key=lambda p: (len(pk.tasks[p]), p)
        )
        pk.merge(ids[0], ids[1])
    out = [pk.tasks[pid] for pid in pk.active_ids()]
    while len(out) < k_packages:  # fewer tasks than GPUs
        out.append([])
    return out


def balance_packages(
    packages: List[List[int]], graph: TaskGraph
) -> List[List[int]]:
    """Algorithm 4 lines 2–6: even the load out across the K packages.

    Moves tasks from the *tail* of the heaviest package to the lightest
    until no package exceeds the average load.  Load is the total task
    duration — proportional to flops — which reduces to the task count
    for homogeneous tasks.
    """
    packages = [list(p) for p in packages]
    if len(packages) <= 1:
        return packages
    flops = [t.flops for t in graph.tasks]

    def load(p: List[int]) -> float:
        return sum(flops[t] for t in p)

    l_avg = sum(load(p) for p in packages) / len(packages)
    loads = [load(p) for p in packages]
    for _ in range(sum(len(p) for p in packages) + len(packages)):
        i_max = max(range(len(packages)), key=lambda i: (loads[i], -i))
        i_min = min(range(len(packages)), key=lambda i: (loads[i], i))
        budget = min(loads[i_max] - l_avg, l_avg - loads[i_min])
        if i_max == i_min or budget <= 0:
            break
        # Move tail tasks worth at most `budget` load; never overshoot,
        # otherwise two packages straddling the average would swap the
        # same task back and forth forever.
        tol = 1e-9 * max(l_avg, 1.0)
        moved = 0.0
        while packages[i_max]:
            t = packages[i_max][-1]
            if moved + flops[t] > budget + tol:
                break
            packages[i_max].pop()
            packages[i_min].append(t)
            moved += flops[t]
            loads[i_max] -= flops[t]
            loads[i_min] += flops[t]
        if moved == 0.0:
            break
    return packages


class Mhfp(ListScheduler):
    """multi-GPU Hierarchical Fair Packing (paper Algorithm 4)."""

    name = "mHFP"
    use_stealing = True

    def allocate(self, view) -> List[List[int]]:
        memory = min(g.memory_bytes for g in view.platform.gpus)
        packages = hfp_pack(view.graph, memory, view.n_gpus)
        return balance_packages(packages, view.graph)


class Hfp(Mhfp):
    """Single-GPU HFP (prior work [14]); identical machinery, K = 1."""

    name = "HFP"
