"""Workload/database build cache, keyed by content hashes.

Building a sweep cell's inputs is expensive relative to running it: the
YCSB generator walks a multi-million-record Zipfian domain and the TPC-C
generator instantiates the full five-template mix, then both apply the
runtime-skew and I/O extensions.  The sequential harness amortised that
by sharing one workload across the systems of a sweep point; the
parallel executor runs those systems as independent cells, so this cache
restores (and extends) the sharing:

* an **in-process memo** (small LRU) returns the same built ``Workload``
  object to every cell of a worker that asks for the same generation
  config — exactly the object sharing the sequential path had;
* an optional **disk layer** under ``<cache-dir>/workloads/`` pickles
  built workloads so concurrent workers and resumed runs skip the
  build entirely.

Keys come from :func:`repro.common.hashing.config_hash` over the full
generation config (generator config, bundle size, experiment extensions,
seed), so any field change — however small — misses the cache instead of
silently reusing a stale build.  Cached builds are bit-identical to
fresh ones: generation is deterministic in the seed, and pickling
round-trips every transaction field.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..common.hashing import config_hash
from ..txn.workload import Workload

#: Workloads kept alive per process; sweeps have strong locality (all
#: systems x seeds of one point reuse one build), so a handful suffices.
MEMO_SLOTS = 8

#: Bump to invalidate on-disk workload pickles when generation changes
#: in a way the config hash cannot see (e.g. generator algorithm edits,
#: or /2's operations pickled as tuples instead of dataclasses).
DISK_FORMAT = "repro.workload/2"


def workload_key(kind: str, gen_config, bundle: int, exp, seed: int) -> str:
    """Content hash identifying one fully-extended workload build."""
    return config_hash({
        "format": DISK_FORMAT,
        "kind": kind,
        "gen": gen_config,
        "bundle": bundle,
        "exp": exp,
        "seed": seed,
    })


@dataclass
class WorkloadCache:
    """Two-level (memo + optional disk) cache of built workloads."""

    cache_dir: Optional[Path] = None
    memo_slots: int = MEMO_SLOTS
    _memo: "OrderedDict[str, Workload]" = field(default_factory=OrderedDict)
    #: Build/hit counters, exposed for tests and the executor's report.
    builds: int = 0
    memo_hits: int = 0
    disk_hits: int = 0

    def get_or_build(self, key: str, builder: Callable[[], Workload]) -> Workload:
        """The workload for ``key``, from memo, disk, or a fresh build."""
        got = self._memo.get(key)
        if got is not None:
            self._memo.move_to_end(key)
            self.memo_hits += 1
            return got
        w = self._load_disk(key)
        if w is not None:
            self.disk_hits += 1
        else:
            w = builder()
            self.builds += 1
            self._store_disk(key, w)
        self._memo[key] = w
        while len(self._memo) > self.memo_slots:
            self._memo.popitem(last=False)
        return w

    # -- disk layer ---------------------------------------------------
    def _path(self, key: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return Path(self.cache_dir) / "workloads" / f"{key}.pkl"

    def _load_disk(self, key: str) -> Optional[Workload]:
        path = self._path(key)
        if path is None or not path.is_file():
            return None
        try:
            with open(path, "rb") as f:
                w = pickle.load(f)
        except Exception:
            return None  # corrupt/partial file: rebuild and overwrite
        return w if isinstance(w, Workload) else None

    def _store_disk(self, key: str, workload: Workload) -> None:
        path = self._path(key)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic publish so a concurrent reader never sees a torn pickle.
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(workload, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


#: The process-wide cache the workload factories route through.  Workers
#: of the parallel executor re-point it at the run's --cache-dir.
_ACTIVE = WorkloadCache()


def active() -> WorkloadCache:
    return _ACTIVE


def configure(cache_dir=None) -> WorkloadCache:
    """Install a fresh process-wide cache (optionally disk-backed)."""
    global _ACTIVE
    _ACTIVE = WorkloadCache(cache_dir=Path(cache_dir) if cache_dir else None)
    return _ACTIVE


def cached_workload(kind: str, gen_config, bundle: int, exp, seed: int,
                    builder: Callable[[], Workload]) -> Workload:
    """Route one workload build through the process-wide cache."""
    key = workload_key(kind, gen_config, bundle, exp, seed)
    return _ACTIVE.get_or_build(key, builder)
