"""Content-addressed on-disk cache for sweep cell results.

Every ``(n, scheduler, repetition)`` cell of a sweep is a pure function
of its instance, platform, scheduler configuration, and seed, so its
:class:`~repro.metrics.collect.Measurement` can be memoised across
harness invocations.  Each cell is keyed by a SHA-256 digest
(:func:`repro.experiments.harness.cell_key`) covering

* the task graph itself (data sizes, task inputs/outputs/flops — not a
  workload *name*, so two differently-labelled workloads that build the
  same instance share entries and any change to a generator invalidates
  its cells),
* the platform (every GPU's name/GFlop/s/memory, bus and peer-link
  bandwidth/latency/model),
* the canonical scheduler name and the effective DARTS threshold,
* the prefetch window and the cell's mixed per-repetition seed,
* the fault-injection plan (``None`` for fault-free sweeps), so faulted
  and fault-free runs of the same cell never share an entry,
* a code-version salt — the digest of all installed ``repro`` sources —
  so editing the simulator or a scheduler automatically invalidates
  every cached result.

Entries are small JSON files under ``<cache_dir>/<key[:2]>/<key>.json``
(git-friendly, rsync-friendly, trivially inspectable).  Writes are
atomic (temp file + rename) so concurrent sweeps sharing a directory
never observe torn entries; unreadable or corrupt entries count as
misses and are recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.core.problem import TaskGraph
from repro.metrics.collect import Measurement
from repro.platform.spec import BusSpec, PlatformSpec

#: default location, relative to the invoking process's cwd
DEFAULT_CACHE_DIR = ".repro-cache"

#: bump when the on-disk entry format changes (2: ``Measurement`` gained
#: ``virtual_decision_time_s``; 3: it lost ``scheduling_time_s``)
CACHE_FORMAT_VERSION = 3


@lru_cache(maxsize=1)
def code_salt() -> str:
    """Digest of every installed ``repro`` source file.

    Folded into each cell key, this is the cache's code-version salt:
    any edit anywhere in the package flushes all entries.  Coarse by
    design — correctness over reuse.
    """
    import repro

    pkg = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*.py")):
        h.update(str(path.relative_to(pkg)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def graph_fingerprint(graph: TaskGraph) -> str:
    """Digest of the bipartite instance (simulation-relevant parts only).

    Covers data sizes and each task's inputs, outputs, and flops;
    labels are cosmetic and excluded.
    """
    h = hashlib.sha256()
    for d in graph.data:
        h.update(f"D|{d.size!r}\n".encode())
    for t in graph.tasks:
        ins = ",".join(map(str, t.inputs))
        outs = ",".join(map(str, t.outputs))
        h.update(f"T|{ins}|{outs}|{t.flops!r}\n".encode())
    return h.hexdigest()


def _bus_dict(bus: Optional[BusSpec]) -> Optional[Dict[str, Any]]:
    if bus is None:
        return None
    return {
        "bandwidth": bus.bandwidth,
        "latency": bus.latency,
        "model": bus.model,
    }


def platform_fingerprint(platform: PlatformSpec) -> Dict[str, Any]:
    """JSON-able identity of a platform spec."""
    return {
        "gpus": [
            {"name": g.name, "gflops": g.gflops, "memory": g.memory_bytes}
            for g in platform.gpus
        ],
        "bus": _bus_dict(platform.bus),
        "peer_link": _bus_dict(platform.peer_link),
    }


class ResultCache:
    """On-disk measurement cache with hit/miss accounting."""

    def __init__(self, cache_dir: Union[str, Path] = DEFAULT_CACHE_DIR):
        self.cache_dir = Path(cache_dir)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Measurement]:
        """Cached measurement for ``key``, or None (counted as a miss)."""
        path = self._path(key)
        try:
            with open(path, "r") as fh:
                entry = json.load(fh)
            m = Measurement.from_dict(entry["measurement"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return m

    def put(self, key: str, measurement: Measurement) -> None:
        """Store ``measurement`` under ``key`` atomically."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "measurement": measurement.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=str(path.parent)
        )
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Current counters (for per-figure stat deltas in the CLI)."""
        return {"hits": self.hits, "misses": self.misses}

    def stats_since(self, before: Dict[str, int]) -> Dict[str, int]:
        return {
            "hits": self.hits - before["hits"],
            "misses": self.misses - before["misses"],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache({str(self.cache_dir)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
