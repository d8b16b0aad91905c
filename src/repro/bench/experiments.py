"""Per-figure experiment definitions (Section 6 of the paper).

Every table and figure of the evaluation has a function here that
regenerates its series; the registry at the bottom maps experiment ids
(``fig4a`` ... ``fig6``, ``table2``, ``overhead``) to those functions.
Run from the command line::

    python -m repro.bench.experiments fig4a fig5a
    python -m repro.bench.experiments all --quick
    python -m repro.bench.experiments --list
    python -m repro.bench.experiments fig4a --jobs 4 --cache-dir .cache --resume

``--jobs N`` fans the (sweep point, system, seed) cells out over N
worker processes with bit-identical output (see docs/parallel.md);
``--cache-dir`` adds workload caching plus per-cell artifacts,
``--resume`` skips cells already persisted there, and ``--retries K``
re-runs crashed cells up to K extra times.

Scales: the default bench scale uses bundles of 1,200 transactions, two
seeds and trimmed sweeps so the whole suite finishes on a laptop;
``--paper`` widens toward Table 1 (bundle 10k, three seeds), ``--quick``
shrinks for smoke tests.  Parameters not being varied take the Table 1
defaults — including the runtime-skew extension, which Table 1 leaves
enabled (minT = 1/2, p = 48, theta_T = 0.8); only I/O latency is
disabled by default (Table 1, footnote 1).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from ..common.config import (
    ExperimentConfig,
    IoLatencyConfig,
    RuntimeSkewConfig,
    SimConfig,
    TpccConfig,
    TsDeferConfig,
    YcsbConfig,
    TSDEFER_DISABLED,
)
from ..common.errors import ReproError
from ..common.rng import Rng
from ..core.tskd import TSKD
from ..partition import (
    HorticulturePartitioner,
    SchismPartitioner,
    StrifePartitioner,
)
from ..txn.workload import Workload
from .cache import cached_workload
from .reporting import Cell, Series
from .runner import run_system
from .workloads import TpccGenerator, YcsbGenerator, apply_io_latency, apply_runtime_skew


# ---------------------------------------------------------------------------
# scales
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scale:
    """How big to run: bundle size, seeds, and sweep trimming."""

    name: str
    bundle: int
    seeds: tuple[int, ...]
    threads: int = 20
    ycsb_records: int = 20_000_000
    tpcc_warehouses: int = 40

    def trim(self, values: Sequence) -> list:
        """Quick scale keeps only the endpoints of a sweep."""
        if self.name == "quick" and len(values) > 2:
            return [values[0], values[-1]]
        return list(values)


QUICK = Scale(name="quick", bundle=400, seeds=(0,), ycsb_records=2_000_000,
              tpcc_warehouses=20)
BENCH = Scale(name="bench", bundle=1_200, seeds=(0, 1))
PAPER = Scale(name="paper", bundle=10_000, seeds=(0, 1, 2))

#: Default per Table 1: 20 threads, OCC, runtime skew on, I/O off.
def default_exp(scale: Scale) -> ExperimentConfig:
    return ExperimentConfig(
        sim=SimConfig(num_threads=scale.threads),
        skew=RuntimeSkewConfig(),
        io=IoLatencyConfig(l_io=0),
        bundle_size=scale.bundle,
    )


# ---------------------------------------------------------------------------
# workload factories
# ---------------------------------------------------------------------------
def ycsb_workload(scale: Scale, exp: ExperimentConfig, theta: float, seed: int,
                  records: int | None = None) -> Workload:
    cfg = YcsbConfig(num_records=records or scale.ycsb_records, theta=theta)

    def build() -> Workload:
        w = YcsbGenerator(cfg, seed=seed).make_workload(scale.bundle)
        _apply_extensions(w, exp, seed)
        return w

    # Faults and prediction never shape the workload (both act at
    # execution time), so every fault scenario and both predictor arms
    # share one cached build per (cfg, exp, seed).
    return cached_workload("ycsb", cfg, scale.bundle,
                           exp.with_(faults=None, predict=None), seed, build)


def drift_ycsb_workload(scale: Scale, exp: ExperimentConfig, theta: float,
                        seed: int, drift_every: int | None = None,
                        records: int | None = None) -> Workload:
    """YCSB whose Zipf hotspot migrates on a seeded schedule.

    The non-stationary regime ``repro.predict`` targets: the skew shape
    is unchanged but which keys are hot jumps every ``drift_every``
    transactions (default: four segments per bundle).
    """
    from .workloads import drifting_ycsb_workload

    cfg = YcsbConfig(num_records=records or scale.ycsb_records, theta=theta)
    every = drift_every or max(1, scale.bundle // 4)

    def build() -> Workload:
        w = drifting_ycsb_workload(cfg, scale.bundle, seed=seed,
                                   drift_every=every)
        _apply_extensions(w, exp, seed)
        return w

    # drift_every shapes generation but lives outside YcsbConfig, so it
    # rides in the cache key's kind string.
    return cached_workload(f"ycsb-drift{every}", cfg, scale.bundle,
                           exp.with_(faults=None, predict=None), seed, build)


def tpcc_workload(scale: Scale, exp: ExperimentConfig, seed: int,
                  cross_pct: float = 0.25, warehouses: int | None = None) -> Workload:
    cfg = TpccConfig(num_warehouses=warehouses or scale.tpcc_warehouses,
                     cross_pct=cross_pct)

    def build() -> Workload:
        w = TpccGenerator(cfg, seed=seed).make_workload(scale.bundle)
        _apply_extensions(w, exp, seed)
        return w

    return cached_workload("tpcc", cfg, scale.bundle,
                           exp.with_(faults=None, predict=None), seed, build)


def _apply_extensions(w: Workload, exp: ExperimentConfig, seed: int) -> None:
    if exp.skew is not None and exp.skew.enabled:
        apply_runtime_skew(w, exp.skew, exp.sim, rng=Rng(seed * 97 + 11))
    if exp.io.enabled:
        apply_io_latency(w, exp.io, rng=Rng(seed * 89 + 17))


# ---------------------------------------------------------------------------
# fault scenarios (repro.faults chaos presets)
# ---------------------------------------------------------------------------
#: Named chaos presets for sweeps, the CLI, and the chaos test suites.
FAULT_SCENARIOS = ("none", "aborts", "stalls", "crashes", "io", "chaos")


def fault_scenario(name: str, seed: int = 0) -> "FaultSpec":
    """A named :class:`~repro.faults.FaultSpec` preset.

    ``none`` is an explicitly-empty spec (compiles to an inert plan, the
    differential baseline); the single-kind scenarios isolate one fault
    mechanism each; ``chaos`` mixes all five kinds.  Counts are sized for
    quick/bench bundles — enough injections to exercise every code path
    without drowning the workload signal.
    """
    from ..faults import FaultSpec

    base = FaultSpec(seed=seed)
    presets = {
        "none": base,
        "aborts": base.with_(spurious_aborts=12),
        "stalls": base.with_(stalls=6),
        "crashes": base.with_(crashes=2),
        "io": base.with_(io_spikes=4),
        "chaos": base.with_(spurious_aborts=8, stalls=4, crashes=2,
                            io_spikes=3, probe_corruptions=2),
    }
    try:
        return presets[name]
    except KeyError:
        raise ReproError(
            f"unknown fault scenario {name!r}; choose from "
            f"{'/'.join(FAULT_SCENARIOS)}") from None


# ---------------------------------------------------------------------------
# system menus
# ---------------------------------------------------------------------------
def partitioner_systems(tsdefer: TsDeferConfig = TsDeferConfig()):
    """The three baseline partitioners, their TSKD versions, and TSKD[0]."""
    return [
        ("Strife", lambda: StrifePartitioner()),
        ("TSKD[S]", lambda: TSKD.instance("S", tsdefer=tsdefer)),
        ("Schism", lambda: SchismPartitioner()),
        ("TSKD[C]", lambda: TSKD.instance("C", tsdefer=tsdefer)),
        ("Horticulture", lambda: HorticulturePartitioner()),
        ("TSKD[H]", lambda: TSKD.instance("H", tsdefer=tsdefer)),
        ("TSKD[0]", lambda: TSKD.instance("0", tsdefer=tsdefer)),
    ]


def strife_pair():
    return [
        ("Strife", lambda: StrifePartitioner()),
        ("TSKD[S]", lambda: TSKD.instance("S")),
    ]


def cc_systems(tsdefer: TsDeferConfig = TsDeferConfig()):
    return [
        ("DBCC", lambda: "dbcc"),
        ("TSKD[CC]", lambda: TSKD.instance("CC", tsdefer=tsdefer)),
    ]


#: Baseline-vs-TSKD pairing used when summarising improvements.
PAIRS = {
    "TSKD[S]": "Strife",
    "TSKD[C]": "Schism",
    "TSKD[H]": "Horticulture",
    "TSKD[CC]": "DBCC",
}


# ---------------------------------------------------------------------------
# measurement core
# ---------------------------------------------------------------------------
def measure_point(
    series: Series,
    x,
    workload_factory: Callable[[int], Workload],
    systems: Iterable[tuple[str, Callable[[], object]]],
    exp: ExperimentConfig,
    seeds: Sequence[int],
) -> None:
    """Run every system at one sweep point, averaged over seeds.

    This is the single funnel every experiment's measurements pass
    through, which is what lets the parallel executor decompose any
    experiment into run cells: under an active executor context the call
    is intercepted (planned or narrowed to one cell) instead of running
    the full point here.  See :mod:`repro.bench.parallel`.
    """
    from .parallel import (
        accumulate,
        cell_vector,
        intercept_point,
        new_accumulator,
        vector_to_cell,
    )

    systems = list(systems)
    if intercept_point(series, x, workload_factory, systems, exp, seeds):
        return
    sums: dict[str, list[float]] = {}
    for seed in seeds:
        workload = workload_factory(seed)
        for name, factory in systems:
            r = run_system(workload, factory(), exp.with_(seed=seed), name=name)
            accumulate(sums.setdefault(name, new_accumulator()),
                       cell_vector(r))
    for name, acc in sums.items():
        series.put(name, x, vector_to_cell(acc, len(seeds)))


# ---------------------------------------------------------------------------
# Figure 4: TSKD on partitioning-based systems
# ---------------------------------------------------------------------------
def fig4a(scale: Scale) -> Series:
    """YCSB throughput/#retry vs contention theta."""
    exp = default_exp(scale)
    xs = scale.trim([0.7, 0.8, 0.9])
    s = Series("fig4a", "scheduling vs partitioning over YCSB contention",
               "theta", xs)
    for theta in xs:
        measure_point(s, theta, lambda seed, th=theta: ycsb_workload(scale, exp, th, seed),
                      partitioner_systems(), exp, scale.seeds)
    return s


def fig4b(scale: Scale) -> Series:
    """Robustness across CC protocols (YCSB)."""
    xs = scale.trim(["occ", "silo", "tictoc"])
    s = Series("fig4b", "scheduling vs partitioning across CC protocols",
               "CC", xs)
    for cc in xs:
        exp = default_exp(scale)
        exp = exp.with_(sim=exp.sim.with_(cc=cc))
        measure_point(s, cc, lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                      strife_pair() + [("Horticulture", lambda: HorticulturePartitioner()),
                                       ("TSKD[H]", lambda: TSKD.instance("H"))],
                      exp, scale.seeds)
    return s


def fig4c(scale: Scale) -> Series:
    """Scalability with the number of cores (YCSB)."""
    xs = scale.trim([8, 20, 32])
    s = Series("fig4c", "scheduling vs partitioning with added cores",
               "#core", xs)
    for cores in xs:
        exp = default_exp(scale)
        exp = exp.with_(sim=exp.sim.with_(num_threads=cores))
        measure_point(s, cores, lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                      strife_pair() + [("Horticulture", lambda: HorticulturePartitioner()),
                                       ("TSKD[H]", lambda: TSKD.instance("H"))],
                      exp, scale.seeds)
    return s


def _fig4_skew(scale: Scale, exp_id: str, field_name: str, values, title: str) -> Series:
    xs = scale.trim(values)
    s = Series(exp_id, title, field_name, xs)
    for v in xs:
        skew = replace(RuntimeSkewConfig(), **{field_name: v})
        exp = default_exp(scale).with_(skew=skew)
        measure_point(s, v, lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                      partitioner_systems(), exp, scale.seeds)
    return s


def fig4d(scale: Scale) -> Series:
    """Runtime skew: minimum-runtime coefficient minT (YCSB)."""
    return _fig4_skew(scale, "fig4d", "min_t", [1 / 8, 1 / 2, 1],
                      "runtime skew: minT")


def fig4e(scale: Scale) -> Series:
    """Runtime skew: maximum-bound multiplier p (YCSB)."""
    return _fig4_skew(scale, "fig4e", "p", [32, 48, 64], "runtime skew: p")


def fig4f(scale: Scale) -> Series:
    """Runtime skew: bound distribution skew theta_T (YCSB)."""
    return _fig4_skew(scale, "fig4f", "theta_t", [0.7, 0.8, 0.9],
                      "runtime skew: theta_T")


def fig4g(scale: Scale) -> Series:
    """TPC-C contention: cross-warehouse percentage c%."""
    exp = default_exp(scale)
    xs = scale.trim([0.15, 0.25, 0.35])
    s = Series("fig4g", "scheduling vs partitioning over TPC-C c%", "c%", xs)
    for c in xs:
        measure_point(s, c, lambda seed, cc=c: tpcc_workload(scale, exp, seed, cross_pct=cc),
                      partitioner_systems(), exp, scale.seeds)
    return s


def fig4h(scale: Scale) -> Series:
    """TPC-C scale: number of warehouses."""
    exp = default_exp(scale)
    xs = scale.trim([20, 40, 60])
    s = Series("fig4h", "scheduling vs partitioning over TPC-C #whn", "#whn", xs)
    for whn in xs:
        measure_point(s, whn, lambda seed, n=whn: tpcc_workload(scale, exp, seed, warehouses=n),
                      partitioner_systems(), exp, scale.seeds)
    return s


def fig4i(scale: Scale) -> Series:
    """#retry at the default configuration, YCSB and TPC-C."""
    exp = default_exp(scale)
    xs = ["YCSB", "TPC-C"]
    s = Series("fig4i", "#retry: scheduling vs partitioning", "benchmark", xs)
    measure_point(s, "YCSB", lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                  partitioner_systems(), exp, scale.seeds)
    measure_point(s, "TPC-C", lambda seed: tpcc_workload(scale, exp, seed),
                  partitioner_systems(), exp, scale.seeds)
    return s


def fig4j(scale: Scale) -> Series:
    """Ablation: full TSKD vs TsPAR-only vs TsDEFER-only (YCSB, Strife)."""
    exp = default_exp(scale)
    xs = ["strife"]
    s = Series("fig4j", "module ablation on Strife", "base", xs)
    systems = [
        ("Strife", lambda: StrifePartitioner()),
        ("TSKD[S]", lambda: TSKD.instance("S")),
        ("TsPAR[S]", lambda: TSKD(partitioner="strife", use_tspar=True,
                                  tsdefer=TSDEFER_DISABLED)),
        ("TsDEFER[S]", lambda: TSKD(partitioner="strife", use_tspar=False,
                                    tsdefer=TsDeferConfig())),
    ]
    measure_point(s, "strife", lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                  systems, exp, scale.seeds)
    return s


def fig4k(scale: Scale) -> Series:
    """I/O latency l_IO on partitioning-based systems (YCSB)."""
    xs = scale.trim([0, 50, 100])
    s = Series("fig4k", "I/O latency (l_IO) on partitioned systems", "l_IO", xs)
    for l_io in xs:
        exp = default_exp(scale).with_(io=IoLatencyConfig(l_io=l_io))
        measure_point(s, l_io, lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                      strife_pair(), exp, scale.seeds)
    return s


def fig4l(scale: Scale) -> Series:
    """I/O tail theta_IO on partitioning-based systems (TPC-C)."""
    xs = scale.trim([0.8, 1.2, 1.6])
    s = Series("fig4l", "I/O tail (theta_IO) on partitioned systems",
               "theta_IO", xs)
    for theta_io in xs:
        exp = default_exp(scale).with_(io=IoLatencyConfig(l_io=50, theta_io=theta_io))
        measure_point(s, theta_io, lambda seed: tpcc_workload(scale, exp, seed),
                      strife_pair(), exp, scale.seeds)
    return s


def table2(scale: Scale) -> Series:
    """Scheduled percentage and queue #retry with/without TsDEFER."""
    exp = default_exp(scale)
    xs = ["YCSB", "TPC-C"]
    s = Series("table2", "s% and queue retries with/without TsDEFER",
               "benchmark", xs)
    systems = []
    for inst in ("S", "C", "H"):
        systems.append((f"TSKD[{inst}] w/o defer",
                        lambda i=inst: TSKD.instance(i, tsdefer=TSDEFER_DISABLED)))
        systems.append((f"TSKD[{inst}] w/ defer",
                        lambda i=inst: TSKD.instance(i)))
    measure_point(s, "YCSB", lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                  systems, exp, scale.seeds)
    measure_point(s, "TPC-C", lambda seed: tpcc_workload(scale, exp, seed),
                  systems, exp, scale.seeds)
    return s


# ---------------------------------------------------------------------------
# Figure 5: TSKD on CC-based systems (TsDEFER vs DBCC)
# ---------------------------------------------------------------------------
def fig5a(scale: Scale) -> Series:
    exp = default_exp(scale)
    xs = scale.trim([0.7, 0.8, 0.9])
    s = Series("fig5a", "TsDEFER vs DBCC over YCSB contention", "theta", xs)
    for theta in xs:
        measure_point(s, theta, lambda seed, th=theta: ycsb_workload(scale, exp, th, seed),
                      cc_systems(), exp, scale.seeds)
    return s


def fig5b(scale: Scale) -> Series:
    xs = scale.trim(["occ", "silo", "tictoc"])
    s = Series("fig5b", "TsDEFER vs DBCC across CC protocols", "CC", xs)
    for cc in xs:
        exp = default_exp(scale)
        exp = exp.with_(sim=exp.sim.with_(cc=cc))
        measure_point(s, cc, lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                      cc_systems(), exp, scale.seeds)
    return s


def fig5c(scale: Scale) -> Series:
    xs = scale.trim([8, 20, 32])
    s = Series("fig5c", "TsDEFER vs DBCC with added cores", "#core", xs)
    for cores in xs:
        exp = default_exp(scale)
        exp = exp.with_(sim=exp.sim.with_(num_threads=cores))
        measure_point(s, cores, lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                      cc_systems(), exp, scale.seeds)
    return s


def _fig5_skew(scale: Scale, exp_id: str, field_name: str, values, title: str) -> Series:
    xs = scale.trim(values)
    s = Series(exp_id, title, field_name, xs)
    for v in xs:
        skew = replace(RuntimeSkewConfig(), **{field_name: v})
        exp = default_exp(scale).with_(skew=skew)
        measure_point(s, v, lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                      cc_systems(), exp, scale.seeds)
    return s


def fig5d(scale: Scale) -> Series:
    return _fig5_skew(scale, "fig5d", "min_t", [1 / 8, 1 / 2, 1],
                      "TsDEFER vs DBCC: minT")


def fig5e(scale: Scale) -> Series:
    return _fig5_skew(scale, "fig5e", "p", [32, 48, 64], "TsDEFER vs DBCC: p")


def fig5f(scale: Scale) -> Series:
    return _fig5_skew(scale, "fig5f", "theta_t", [0.7, 0.8, 0.9],
                      "TsDEFER vs DBCC: theta_T")


def fig5g(scale: Scale) -> Series:
    """Trade-off: number of lookups (0 disables TsDEFER)."""
    exp = default_exp(scale)
    xs = scale.trim([0, 1, 2, 5])
    s = Series("fig5g", "TsDEFER trade-off: #lookups", "#lookups", xs)
    for nl in xs:
        systems = [
            ("DBCC", lambda: "dbcc"),
            ("TSKD[CC]", lambda n=nl: TSKD.instance(
                "CC", tsdefer=TsDeferConfig(num_lookups=n) if n else TSDEFER_DISABLED)),
        ]
        measure_point(s, nl, lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                      systems, exp, scale.seeds)
    return s


def fig5h(scale: Scale) -> Series:
    """Impact of inaccurate access sets (alpha)."""
    exp = default_exp(scale)
    xs = scale.trim([0.5, 0.75, 1.0])
    s = Series("fig5h", "TsDEFER with inaccurate access sets", "alpha", xs)
    for alpha in xs:
        systems = [
            ("DBCC", lambda: "dbcc"),
            ("TSKD[CC]", lambda a=alpha: TSKD.instance(
                "CC", tsdefer=TsDeferConfig(access_set_accuracy=a))),
        ]
        measure_point(s, alpha, lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                      systems, exp, scale.seeds)
    return s


def fig6(scale: Scale) -> Series:
    """I/O latency on TsDEFER: l_IO and theta_IO sweeps (YCSB)."""
    xs = []
    s = Series("fig6", "I/O latency on TsDEFER", "knob", xs)
    for l_io in scale.trim([0, 50, 100]):
        x = f"l_IO={l_io}"
        xs.append(x)
        exp = default_exp(scale).with_(io=IoLatencyConfig(l_io=l_io))
        measure_point(s, x, lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                      cc_systems(), exp, scale.seeds)
    for theta_io in scale.trim([0.8, 1.6]):
        x = f"theta_IO={theta_io}"
        xs.append(x)
        exp = default_exp(scale).with_(io=IoLatencyConfig(l_io=50, theta_io=theta_io))
        measure_point(s, x, lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                      cc_systems(), exp, scale.seeds)
    s.x_values = xs
    return s


def overhead(scale: Scale) -> Series:
    """TSgen runtime as a fraction of partitioning time (Section 6.2)."""
    from ..core.tsgen import tsgen
    from ..core.tspar import TsPar
    from ..sim.warmup import warm_up_history

    exp = default_exp(scale)
    xs = ["Strife", "Schism"]
    s = Series("overhead", "TSgen overhead relative to partitioners",
               "partitioner", xs)
    w = ycsb_workload(scale, exp, 0.8, seed=0)
    graph = w.conflict_graph()
    cost = warm_up_history(w, exp.sim)
    for name, partitioner in (("Strife", StrifePartitioner()),
                              ("Schism", SchismPartitioner())):
        t0 = time.perf_counter()
        plan = partitioner.partition(w, exp.sim.num_threads)
        t_part = time.perf_counter() - t0
        tspar = TsPar(partitioner)
        normalised = tspar.make_plan(w, exp.sim.num_threads, cost, graph, Rng(0))
        t0 = time.perf_counter()
        tsgen(w, normalised, cost, graph=graph, rng=Rng(1))
        t_sched = time.perf_counter() - t0
        ratio = 100.0 * t_sched / max(t_part, 1e-9)
        s.put(name, name, Cell(throughput=ratio, retries_per_100k=0.0))
        s.notes.append(
            f"{name}: partition {t_part * 1e3:.1f} ms, TSgen {t_sched * 1e3:.1f} ms, "
            f"overheadR = {ratio:.1f}% (cell 'throughput' column holds overheadR)"
        )
        del plan
    return s


# ---------------------------------------------------------------------------
# registry & CLI
# ---------------------------------------------------------------------------
EXPERIMENTS: dict[str, Callable[[Scale], Series]] = {
    "fig4a": fig4a, "fig4b": fig4b, "fig4c": fig4c, "fig4d": fig4d,
    "fig4e": fig4e, "fig4f": fig4f, "fig4g": fig4g, "fig4h": fig4h,
    "fig4i": fig4i, "fig4j": fig4j, "fig4k": fig4k, "fig4l": fig4l,
    "table2": table2,
    "fig5a": fig5a, "fig5b": fig5b, "fig5c": fig5c, "fig5d": fig5d,
    "fig5e": fig5e, "fig5f": fig5f, "fig5g": fig5g, "fig5h": fig5h,
    "fig6": fig6, "overhead": overhead,
}


class UnknownExperimentError(ReproError, KeyError):
    """An experiment id matched neither the registry nor the ablations.

    Subclasses :class:`KeyError` for callers that predate it.
    """

    def __init__(self, exp_id: str):
        self.exp_id = exp_id
        super().__init__(
            f"unknown experiment {exp_id!r}; valid ids: "
            f"{', '.join(list_experiment_ids())} "
            f"(run 'experiment --list' to see them)"
        )

    def __str__(self) -> str:  # undo KeyError's repr-quoting of args
        return self.args[0]


def list_experiment_ids() -> list[str]:
    """Every runnable experiment id: figures/tables, then ablations."""
    from .ablations import ABLATIONS  # local import: ablations import us

    return sorted(EXPERIMENTS) + sorted(ABLATIONS)


def lookup_experiment(exp_id: str) -> Callable[[Scale], Series]:
    """Resolve an experiment id to its function.

    Accepts registry ids (``fig4a``, ``abl_tsgen``) and dotted
    references ``package.module:function`` for out-of-tree experiments —
    the latter is what lets the spawn-based parallel workers run
    experiments defined outside this package.
    """
    fn = EXPERIMENTS.get(exp_id)
    if fn is None:
        from .ablations import ABLATIONS  # local import: ablations import us

        fn = ABLATIONS.get(exp_id)
    if fn is None and ":" in exp_id:
        import importlib

        module_name, _, attr = exp_id.partition(":")
        try:
            fn = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError) as e:
            raise UnknownExperimentError(exp_id) from e
    if fn is None:
        raise UnknownExperimentError(exp_id)
    return fn


def run_experiment(
    exp_id: str,
    scale: Scale = BENCH,
    *,
    jobs: int | None = None,
    cache_dir=None,
    resume: bool = False,
    retries: int = 0,
) -> Series:
    """Run one experiment (or ablation) by id and return its series.

    With ``jobs=None`` (the default) the experiment runs sequentially in
    this process.  Any other value routes it through the parallel cell
    executor (:mod:`repro.bench.parallel`): ``jobs`` spawn workers,
    optional ``cache_dir`` for workload caching and per-cell artifacts,
    ``resume`` to skip already-persisted cells, ``retries`` to re-run
    crashed cells.  Executor output is bit-identical for every ``jobs``
    value.
    """
    if jobs is None and cache_dir is None and not resume:
        return lookup_experiment(exp_id)(scale)
    from .parallel import run_experiment_cells

    series, _report = run_experiment_cells(
        exp_id, scale, jobs=jobs if jobs is not None else 1,
        cache_dir=cache_dir, resume=resume, retries=retries)
    return series


def _pop_flag(args: list[str], name: str) -> bool:
    if name in args:
        args.remove(name)
        return True
    return False


def _pop_option(args: list[str], name: str) -> str | None:
    """Remove ``--name VALUE`` or ``--name=VALUE`` from args, if present."""
    for i, arg in enumerate(args):
        if arg == name:
            if i + 1 >= len(args):
                raise SystemExit(f"{name} requires a value")
            args.pop(i)
            return args.pop(i)
        if arg.startswith(name + "="):
            args.pop(i)
            return arg.split("=", 1)[1]
    return None


def main(argv: Sequence[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    scale = BENCH
    if _pop_flag(args, "--quick"):
        scale = QUICK
    if _pop_flag(args, "--paper"):
        scale = PAPER
    charts = _pop_flag(args, "--charts")
    want_summary = _pop_flag(args, "--summary")
    profile = _pop_flag(args, "--profile")
    if _pop_flag(args, "--list"):
        for exp_id in list_experiment_ids():
            print(exp_id)
        return 0
    jobs_opt = _pop_option(args, "--jobs")
    cache_dir = _pop_option(args, "--cache-dir")
    resume = _pop_flag(args, "--resume")
    retries_opt = _pop_option(args, "--retries")
    try:
        jobs = int(jobs_opt) if jobs_opt is not None else None
        retries = int(retries_opt) if retries_opt is not None else 0
    except ValueError as e:
        raise SystemExit(f"--jobs/--retries need integers: {e}")
    parallel = jobs is not None or cache_dir is not None or resume
    prof = None
    if profile:
        if parallel:
            # Worker processes never see the coordinator's profiler;
            # their sections would silently vanish from the table.
            raise SystemExit("--profile requires the sequential path "
                             "(drop --jobs/--cache-dir/--resume)")
        from ..obs.prof import Profiler, activate_profiler

        prof = Profiler()
        prof.start()
        activate_profiler(prof)
    ids = args or ["fig4a"]
    if ids == ["all"]:
        ids = list(EXPERIMENTS)
    collected = []
    for exp_id in ids:
        t0 = time.perf_counter()
        try:
            if parallel:
                from .parallel import run_experiment_cells

                series, report = run_experiment_cells(
                    exp_id, scale, jobs=jobs if jobs is not None else 1,
                    cache_dir=cache_dir, resume=resume, retries=retries)
            else:
                series, report = run_experiment(exp_id, scale), None
        except UnknownExperimentError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        collected.append(series)
        print(series.render())
        if charts:
            from .plots import series_charts

            print()
            print(series_charts(series))
        if report is not None:
            print(f"  {report.summary()}")
        print(f"  [{exp_id} took {time.perf_counter() - t0:.1f}s at scale "
              f"{scale.name}]\n")
    if prof is not None:
        from ..obs.prof import deactivate_profiler
        from ..obs.report import render_profile

        prof.stop()
        deactivate_profiler()
        print(render_profile(prof.to_dict()))
        print()
    if want_summary:
        from .summary import summarize_all

        print("== summary (improvement of each TSKD instance over its "
              "baseline)")
        print(summarize_all(collected))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
