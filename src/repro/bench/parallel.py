"""Parallel experiment executor: deterministic fan-out over run cells.

The sequential harness runs one experiment as nested loops — sweep
point, then seed, then system — on a single core.  This module
decomposes the same experiment into independent **run cells**::

    CellKey = (experiment id, sweep value, system, seed [, scale])

and fans the cells out across CPU cores with ``multiprocessing`` (spawn
context, picklable cell specs), then reassembles the :class:`Series` in
the sequential order.  Three properties make the fan-out safe:

**Determinism.**  Every cell derives all randomness from its key alone:
workload generation seeds from the cell's ``seed``, engine/scheduler
streams from ``Rng.fork`` salts off ``ExperimentConfig.seed`` — never
from worker identity, scheduling order, or wall clock.  Workers are
spawned with a pinned ``PYTHONHASHSEED`` so set-iteration order cannot
leak into results either, which makes ``jobs=N`` output bit-for-bit
identical to ``jobs=1``.  Reassembly accumulates per-system seed
vectors in seed order, reproducing the sequential path's float
arithmetic exactly.

**Caching.**  Workload builds route through :mod:`repro.bench.cache`,
keyed on a content hash of the generation config, so the systems of a
sweep point share one build per worker (and, with ``--cache-dir``, one
build per machine) instead of rebuilding per cell.

**Resume + isolation.**  With a cache dir, each finished cell is
persisted as a schema-validated ``repro.run/1`` artifact (with an extra
``cell`` section) under ``<cache-dir>/cells/``; a rerun with
``resume=True`` loads finished cells instead of re-running them.  A
crashing cell records an error entry and the sweep continues;
``retries=K`` re-runs failures up to K more times.

How an experiment becomes cells: the experiment functions in
:mod:`repro.bench.experiments` already funnel every measurement through
``measure_point``.  The executor re-runs the (cheap) experiment function
under a context that intercepts ``measure_point`` — once in *plan* mode
to enumerate cells and capture the series skeleton, then once per cell
in a worker to execute exactly that cell.  Experiments that never call
``measure_point`` (e.g. ``overhead``, which wall-clock-times its own
body) fall back to the sequential path.

See docs/parallel.md for the cell model, cache layout, and failure
semantics.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from ..common.errors import ConfigError, ReproError
from ..common.hashing import config_hash, stable_repr
from ..common.stats import RunResult
from ..faults import FaultPlan
from ..obs.artifact import ArtifactError, build_artifact, validate_artifact
from . import cache as workload_cache
from .reporting import Cell, Series
from .runner import run_system

#: Schema id of the ``cell`` section added to per-cell run artifacts.
CELL_SCHEMA = "repro.cell/1"

#: Hash seed pinned in spawned workers: several baseline partitioners
#: iterate over sets of string-keyed records, so without a fixed seed
#: two processes can produce different (all individually valid) results.
WORKER_HASH_SEED = "0"


@contextmanager
def pinned_hashseed():
    """Pin ``PYTHONHASHSEED`` in the environment while spawning workers.

    Spawned interpreters read the env at exec, so any child started
    inside this block inherits the fixed seed; the parent's value is
    restored on exit.  Shared by the bench spawn pool and the serving
    cluster's shard workers (``repro.serve.shard``), which need the same
    cross-process set-iteration determinism.
    """
    saved = os.environ.get("PYTHONHASHSEED")
    os.environ["PYTHONHASHSEED"] = WORKER_HASH_SEED
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("PYTHONHASHSEED", None)
        else:
            os.environ["PYTHONHASHSEED"] = saved


class CellPlanError(ReproError):
    """Planning produced an inconsistent cell decomposition."""


# ---------------------------------------------------------------------------
# measurement vectors — the exact float arithmetic of the sequential path
# ---------------------------------------------------------------------------
#: Per-run accumulator layout (matches measure_point's historical `acc`).
VECTOR_LEN = 8


def cell_vector(r: RunResult) -> list[float]:
    """One run's contribution to a (system, x) accumulator."""
    return [
        r.throughput,
        r.retries_per_100k,
        float(r.deferrals),
        r.scheduled_pct if r.scheduled_pct is not None else -1.0,
        1.0 if r.scheduled_pct is not None else 0.0,
        r.imbalance_ratio if r.imbalance_ratio != float("inf") else 0.0,
        float(r.latency_p50),
        float(r.latency_p99),
    ]


def new_accumulator() -> list[float]:
    return [0.0] * VECTOR_LEN


def accumulate(acc: list[float], vec: Sequence[float]) -> None:
    for i in range(VECTOR_LEN):
        acc[i] += vec[i]


def vector_to_cell(acc: Sequence[float], n_seeds: int) -> Cell:
    """Seed-averaged cell; identical arithmetic to the sequential path."""
    n = n_seeds
    return Cell(
        throughput=acc[0] / n,
        retries_per_100k=acc[1] / n,
        deferrals=acc[2] / n,
        scheduled_pct=(acc[3] / acc[4]) if acc[4] else None,
        imbalance=acc[5] / n,
        latency_p50=acc[6] / n,
        latency_p99=acc[7] / n,
    )


# ---------------------------------------------------------------------------
# cell keys
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CellKey:
    """Identity of one run cell.  Fully picklable, content-addressed.

    ``x`` is the :func:`repro.common.hashing.stable_repr` of the sweep
    value, and ``scale_hash`` the config hash of the :class:`Scale`, so
    equal keys mean "this exact measurement" across processes and runs.
    ``faults`` is the digest of the compiled fault plan (empty for a
    chaos-free cell), so cached cells are never reused across different
    fault timelines.
    """

    exp_id: str
    x: str
    system: str
    seed: int
    scale_hash: str
    faults: str = ""

    def cell_id(self) -> str:
        """Stable content hash of the full key."""
        return config_hash({
            "schema": CELL_SCHEMA,
            "exp_id": self.exp_id,
            "x": self.x,
            "system": self.system,
            "seed": self.seed,
            "scale": self.scale_hash,
            "faults": self.faults,
        })

    def filename(self) -> str:
        slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", self.system).strip("_")
        return f"{slug}-s{self.seed}-{self.cell_id()[:16]}.json"


# ---------------------------------------------------------------------------
# measure_point interception
# ---------------------------------------------------------------------------
class _CellDone(BaseException):
    """Short-circuits the experiment function once the target cell ran.

    Derives from BaseException so no well-meaning ``except Exception``
    inside an experiment body can swallow it.
    """


@dataclass
class _PlanPoint:
    """One measure_point call site, as discovered during planning."""

    x: object
    x_repr: str
    systems: list[str]
    seeds: list[int]
    #: Fault-plan digest of this point's ExperimentConfig ("" = no faults).
    faults: str = ""


@dataclass
class _PlanContext:
    exp_id: str
    scale_hash: str
    points: list[_PlanPoint] = field(default_factory=list)
    _seen: set = field(default_factory=set)

    def handle(self, series, x, workload_factory, systems, exp, seeds) -> bool:
        names = [name for name, _factory in systems]
        x_repr = stable_repr(x)
        for seed in seeds:
            for name in names:
                key = (x_repr, name, seed)
                if key in self._seen:
                    raise CellPlanError(
                        f"experiment {self.exp_id!r} measures cell "
                        f"(x={x!r}, system={name!r}, seed={seed}) twice; "
                        f"cells must be unique to parallelise"
                    )
                self._seen.add(key)
        self.points.append(_PlanPoint(x=x, x_repr=x_repr, systems=names,
                                      seeds=list(seeds),
                                      faults=_faults_digest(exp)))
        return True  # skip execution


@dataclass
class _CellContext:
    target: CellKey
    outcome: Optional[tuple[list[float], RunResult, object]] = None

    def handle(self, series, x, workload_factory, systems, exp, seeds) -> bool:
        if stable_repr(x) != self.target.x:
            return True  # not this sweep point: skip, build nothing
        if self.target.seed not in seeds:
            return True
        factory = None
        for name, f in systems:
            if name == self.target.system:
                factory = f
                break
        if factory is None:
            return True
        workload = workload_factory(self.target.seed)
        run_exp = exp.with_(seed=self.target.seed)
        result = run_system(workload, factory(), run_exp,
                            name=self.target.system)
        self.outcome = (cell_vector(result), result, run_exp)
        raise _CellDone


def _faults_digest(exp) -> str:
    """Digest of the fault plan ``exp`` compiles to; "" without faults."""
    spec = getattr(exp, "faults", None)
    if spec is None or not getattr(spec, "enabled", False):
        return ""
    return FaultPlan.compile(spec, exp.sim.num_threads).digest


#: Per-process active context; plan/cell modes install themselves here
#: and measure_point consults it via intercept_point().
_CTX: object = None


def intercept_point(series, x, workload_factory, systems, exp, seeds) -> bool:
    """Hook called by ``measure_point``; True means "handled, skip"."""
    ctx = _CTX
    if ctx is None:
        return False
    return ctx.handle(series, x, workload_factory, systems, exp, seeds)


def _with_context(ctx, fn: Callable, *args):
    global _CTX
    if _CTX is not None:
        raise CellPlanError("nested parallel-executor contexts are not supported")
    _CTX = ctx
    try:
        return fn(*args)
    finally:
        _CTX = None


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------
def plan_experiment(exp_id: str, scale) -> tuple[Series, list[_PlanPoint], str]:
    """Enumerate an experiment's cells without running any of them.

    Returns the series skeleton (x values, title, notes — no cells),
    the planned points in measurement order, and the scale hash.
    """
    from .experiments import lookup_experiment

    fn = lookup_experiment(exp_id)
    scale_hash = config_hash(scale)
    ctx = _PlanContext(exp_id=exp_id, scale_hash=scale_hash)
    series = _with_context(ctx, fn, scale)
    return series, ctx.points, scale_hash


def _cells_of(exp_id: str, points: Iterable[_PlanPoint],
              scale_hash: str) -> list[CellKey]:
    cells = []
    for point in points:
        for seed in point.seeds:
            for name in point.systems:
                cells.append(CellKey(exp_id=exp_id, x=point.x_repr,
                                     system=name, seed=seed,
                                     scale_hash=scale_hash,
                                     faults=point.faults))
    return cells


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _worker_init(cache_dir) -> None:
    workload_cache.configure(cache_dir)


def _run_cell(payload) -> tuple[CellKey, Optional[list[float]], Optional[str]]:
    exp_id, scale, key, cache_dir = payload
    from .experiments import lookup_experiment

    fn = lookup_experiment(exp_id)
    ctx = _CellContext(target=key)
    try:
        _with_context(ctx, fn, scale)
    except _CellDone:
        pass
    if ctx.outcome is None:
        return key, None, (
            f"experiment {exp_id!r} never measured cell {key}; the plan "
            f"and execution passes disagree (non-deterministic sweep?)"
        )
    vector, result, run_exp = ctx.outcome
    if cache_dir is not None:
        write_cell_artifact(cache_dir, key, vector, result, run_exp, scale)
    return key, vector, None


def _run_cell_safe(payload):
    """Worker entry: never raises, so one bad cell cannot kill the sweep."""
    try:
        return _run_cell(payload)
    except BaseException:
        key = payload[2]
        return key, None, traceback.format_exc()


# ---------------------------------------------------------------------------
# per-cell artifacts (resume layer)
# ---------------------------------------------------------------------------
def cell_artifact_path(cache_dir, key: CellKey) -> Path:
    return Path(cache_dir) / "cells" / key.exp_id / key.filename()


def write_cell_artifact(cache_dir, key: CellKey, vector: Sequence[float],
                        result: RunResult, exp, scale) -> Path:
    """Persist one finished cell as a validated ``repro.run/1`` artifact."""
    from .runner import policy_of

    policy = policy_of(result)
    doc = build_artifact(result, config=exp, workload=key.exp_id,
                         predict=policy.snapshot() if policy is not None
                         else None)
    doc["cell"] = {
        "schema": CELL_SCHEMA,
        "id": key.cell_id(),
        "exp_id": key.exp_id,
        "x": key.x,
        "system": key.system,
        "seed": key.seed,
        "scale": getattr(scale, "name", None),
        "scale_hash": key.scale_hash,
        "faults": key.faults,
        "vector": list(vector),
        # Integrity check: a torn write or bit-rot inside an otherwise
        # well-formed JSON must degrade to a cache miss, never be trusted.
        "digest": config_hash([key.cell_id(), [float(v) for v in vector]]),
    }
    validate_artifact(doc)
    path = cell_artifact_path(cache_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_cell_vector(cache_dir, key: CellKey) -> Optional[list[float]]:
    """The persisted vector for ``key``, or None when absent/invalid.

    Anything wrong with the file — missing, torn, schema mismatch, a key
    collision — degrades to "not cached": the cell simply re-runs.
    """
    path = cell_artifact_path(cache_dir, key)
    if not path.is_file():
        return None
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        validate_artifact(doc)
    except (OSError, json.JSONDecodeError, ArtifactError):
        return None
    cell = doc.get("cell")
    if not isinstance(cell, dict) or cell.get("schema") != CELL_SCHEMA:
        return None
    if cell.get("id") != key.cell_id():
        return None
    vector = cell.get("vector")
    if (not isinstance(vector, list) or len(vector) != VECTOR_LEN
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in vector)):
        return None
    values = [float(v) for v in vector]
    if cell.get("digest") != config_hash([key.cell_id(), values]):
        return None
    # json round-trips repr-formatted floats exactly, so resumed cells
    # are bit-identical to freshly-run ones.
    return values


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------
@dataclass
class CellReport:
    """What the executor did for one experiment."""

    exp_id: str
    jobs: int
    total_cells: int = 0
    executed: int = 0
    resumed: int = 0
    failed: list[tuple[CellKey, str]] = field(default_factory=list)
    attempts: int = 1
    #: True when the experiment exposed no cells (no measure_point call)
    #: and ran on the sequential path instead.
    sequential_fallback: bool = False

    def summary(self) -> str:
        if self.sequential_fallback:
            return (f"[{self.exp_id}: no cell decomposition; "
                    f"ran sequentially]")
        return (f"[{self.exp_id}: cells={self.total_cells} "
                f"executed={self.executed} cached={self.resumed} "
                f"failed={len(self.failed)} jobs={self.jobs}]")


def run_experiment_cells(
    exp_id: str,
    scale,
    jobs: int = 1,
    cache_dir=None,
    resume: bool = False,
    retries: int = 0,
    inline: bool = False,
) -> tuple[Series, CellReport]:
    """Run one experiment cell-by-cell and reassemble its series.

    ``jobs`` workers execute cells from a spawn-context process pool
    whose interpreters run with ``PYTHONHASHSEED=0``; results are
    bit-identical for every ``jobs`` value.  ``inline=True`` executes
    cells in the current process instead (no isolation, current hash
    seed) — meant for tests and debugging, not for the determinism
    contract.  See the module docstring for cache/resume/retry
    semantics.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ConfigError(f"retries must be >= 0, got {retries}")
    if resume and cache_dir is None:
        raise ConfigError("resume=True requires a cache_dir")

    from .experiments import lookup_experiment

    series, points, scale_hash = plan_experiment(exp_id, scale)
    report = CellReport(exp_id=exp_id, jobs=jobs, attempts=retries + 1)
    if not points:
        # No measure_point decomposition (e.g. `overhead` wall-clock
        # times its own body): run the experiment as-is.
        report.sequential_fallback = True
        return lookup_experiment(exp_id)(scale), report

    cells = _cells_of(exp_id, points, scale_hash)
    report.total_cells = len(cells)
    if cache_dir is not None:
        Path(cache_dir).mkdir(parents=True, exist_ok=True)

    vectors: dict[CellKey, list[float]] = {}
    if resume:
        for key in cells:
            got = load_cell_vector(cache_dir, key)
            if got is not None:
                vectors[key] = got
        report.resumed = len(vectors)

    pending = [(exp_id, scale, key, cache_dir)
               for key in cells if key not in vectors]
    if pending:
        errors = _execute(pending, vectors, jobs=jobs, cache_dir=cache_dir,
                          retries=retries, inline=inline)
        report.executed = len(pending) - len(errors)
        report.failed = errors
        for key, err in errors:
            series.notes.append(
                f"cell {key.system} @ x={key.x} seed={key.seed} failed "
                f"after {retries + 1} attempt(s): {_first_line(err)}"
            )

    _assemble(series, points, vectors, exp_id, scale_hash)
    return series, report


def _first_line(err: str) -> str:
    lines = [ln.strip() for ln in err.strip().splitlines() if ln.strip()]
    return lines[-1] if lines else "unknown error"


def _execute(pending, vectors, *, jobs, cache_dir, retries,
             inline) -> list[tuple[CellKey, str]]:
    """Run cells (with retries), filling ``vectors``; returns failures."""
    last_error: dict[CellKey, str] = {}

    def one_round(payloads, runner):
        still_failing = []
        for payload, (key, vector, err) in zip(payloads, runner(payloads)):
            if err is None:
                vectors[key] = vector
                last_error.pop(key, None)
            else:
                last_error[key] = err
                still_failing.append(payload)
        return still_failing

    if inline:
        if cache_dir is not None:
            cache = workload_cache.active()
            if cache.cache_dir != Path(cache_dir):
                workload_cache.configure(cache_dir)
        for _attempt in range(retries + 1):
            pending = one_round(pending, lambda ps: map(_run_cell_safe, ps))
            if not pending:
                break
    else:
        ctx = get_context("spawn")
        # Pin the workers' hash seed so set-iteration order is identical
        # in every process; spawned interpreters read the env at exec.
        with pinned_hashseed():
            pool = ctx.Pool(processes=jobs, initializer=_worker_init,
                            initargs=(cache_dir,))
        with pool:
            for _attempt in range(retries + 1):
                pending = one_round(
                    pending, lambda ps: pool.map(_run_cell_safe, ps,
                                                 chunksize=1))
                if not pending:
                    break
    return [(payload[2], last_error[payload[2]]) for payload in pending]


def _assemble(series: Series, points: Sequence[_PlanPoint],
              vectors: dict[CellKey, list[float]], exp_id: str,
              scale_hash: str) -> None:
    """Fill the series from cell vectors, in sequential-path order.

    Accumulation per system walks seeds in sweep order, so the float
    additions happen in exactly the order the sequential path performs
    them.  (system, x) pairs with any missing cell are left as holes —
    ``Series.get`` then reports them as an interrupted sweep.
    """
    for point in points:
        sums: dict[str, list[float]] = {}
        complete: dict[str, bool] = {}
        for seed in point.seeds:
            for name in point.systems:
                key = CellKey(exp_id=exp_id, x=point.x_repr, system=name,
                              seed=seed, scale_hash=scale_hash,
                              faults=point.faults)
                vec = vectors.get(key)
                if vec is None:
                    complete[name] = False
                    continue
                complete.setdefault(name, True)
                accumulate(sums.setdefault(name, new_accumulator()), vec)
        for name in point.systems:
            if complete.get(name):
                series.put(name, point.x,
                           vector_to_cell(sums[name], len(point.seeds)))
