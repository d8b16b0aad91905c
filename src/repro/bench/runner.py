"""Experiment runner: execute one workload under one system, measure.

A *system* is any of:

* a :class:`~repro.partition.Partitioner` — the baseline partitioning
  execution: CC-free partitions as thread buffers (with CC underneath, as
  in the paper's testbed), then the residual round-robin;
* a :class:`~repro.core.TSKD` instance — queues + residual, with TsDEFER
  installed on the engine;
* the string ``"dbcc"`` — DBx1000's default: round-robin buffers + CC.

Each runs as a TSKD plan (:func:`as_tskd`) through one epoch loop, so
the static and the adaptive run differ only in their epochs.  Every run
builds a fresh engine so protocol state never leaks between
systems, and all systems of one experiment share the same workload
objects (same skew bounds, same I/O stalls) and so the same conflict
graph, which :meth:`Workload.conflict_graph` memoises per isolation level.
"""

from __future__ import annotations

from typing import Optional, Union

from ..common.config import TSDEFER_DISABLED, ExperimentConfig
from ..common.rng import Rng
from ..common.stats import RunResult, percentile
from ..core.tskd import TSKD, execute_phases
from ..faults import FaultInjector, FaultPlan
from ..obs.instrument import Instrument
from ..obs.metrics import (
    LATENCY_BUCKETS_CYCLES,
    RETRY_BUCKETS,
    MetricsRegistry,
)
from ..obs.prof import Profiler, get_active_profiler
from ..obs.tracing import Tracer
from ..partition.base import Partitioner
from ..sim.engine import MulticoreEngine, PhaseResult, merge_phase_results
from ..sim.fastengine import make_engine
from ..sim.stream import OpenSystemResult, run_open_system
from ..sim.warmup import warm_up_history
from ..txn.cost import CostModel
from ..txn.workload import Workload

System = Union[Partitioner, TSKD, str]

#: System spec names accepted by :func:`make_system` (and the CLI's
#: --system).  Append "!" to a tskd-* name for enforced CC-free queue
#: execution (e.g. "tskd-s!").
SYSTEM_SPECS = ("dbcc", "strife", "schism", "horticulture",
                "tskd-s", "tskd-c", "tskd-h", "tskd-0", "tskd-cc")


def make_system(name: str) -> System:
    """Resolve a system spec string into a runnable system object."""
    from ..partition import make_partitioner

    name = name.lower()
    if name == "dbcc":
        return "dbcc"
    if name in ("strife", "schism", "horticulture"):
        return make_partitioner(name)
    if name.startswith("tskd-"):
        enforced = name.endswith("!")
        name = name.rstrip("!")
        tskd = TSKD.instance(name.split("-", 1)[1].upper()
                             if name != "tskd-0" else "0")
        if enforced:
            tskd.queue_execution = "enforced"
        return tskd
    raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_SPECS}")


def system_name(system: System) -> str:
    if isinstance(system, str):
        return system.upper()
    if isinstance(system, TSKD):
        return system.name
    return system.name.capitalize()


def as_tskd(system: System) -> TSKD:
    """The TSKD plan that runs ``system``.

    TSKD is a layer between a system's thread assignment and its engine
    (Section 3), so every system is one: DBCC is TSKD with both modules
    off over round-robin, and a bare partitioner is TSKD with both
    modules off over that partitioner.
    """
    if isinstance(system, TSKD):
        return system
    if isinstance(system, str) and system.lower() != "dbcc":
        raise ValueError(f"unknown system string {system!r}")
    partitioner = None if isinstance(system, str) else system
    return TSKD(partitioner, use_tspar=False, tsdefer=TSDEFER_DISABLED)


def run_system(
    workload: Workload,
    system: System,
    exp: ExperimentConfig,
    cost: Optional[CostModel] = None,
    name: Optional[str] = None,
    record_history: bool = False,
    db=None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    fault_plan: Optional[FaultPlan] = None,
    prof: Optional[Profiler] = None,
) -> RunResult:
    """Execute ``workload`` under ``system`` and return the measurements.

    Every system runs as a :class:`TSKD` plan (:func:`as_tskd`), epoch
    by epoch on one persistent engine.  A static run is one epoch: the
    whole bundle.  With ``exp.predict`` enabled, a TSKD system (other
    than the enforced gate) runs adaptively: the bundle is cut into
    ``predict.epoch_txns``-sized epochs, each planned on its own
    conflict graph, and between epochs the
    :class:`~repro.predict.policy.OnlinePolicy` decays its sketch,
    refreshes the hot snapshot that steers the next epoch's TSgen pass,
    and retunes TsDEFER (docs/adaptive.md).

    ``tracer`` streams structured span events from every engine phase
    (see :mod:`repro.obs.tracing`); ``metrics`` supplies the registry the
    run populates — one is created when omitted, and either way the
    populated registry rides back on ``RunResult.metrics``.

    ``prof`` attributes self-time (and deterministic virtual cycles) to
    named engine sections (:mod:`repro.obs.prof`); when omitted, the
    process-wide active profiler — if one was installed via
    ``activate_profiler`` (e.g. ``repro experiment --profile``) — is
    used, so callers deep in an experiment loop need no plumbing.

    ``fault_plan`` injects a compiled chaos timeline (:mod:`repro.faults`)
    into the CC execution engine; when omitted, ``exp.faults`` (a
    :class:`~repro.faults.FaultSpec`) is compiled for this thread count.
    An empty plan installs an inert injector and leaves the run — and its
    exported artifact — byte-identical to a no-faults run.
    """
    from ..predict.policy import OnlinePolicy, fan_out

    sim = exp.sim
    k = sim.num_threads
    rng = Rng(exp.seed * 31 + 5)
    if fault_plan is None:
        spec = exp.faults
        if spec is not None and getattr(spec, "enabled", False):
            fault_plan = FaultPlan.compile(spec, k)
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    if prof is None:
        prof = get_active_profiler()
    if cost is None:
        if prof is None:
            cost = warm_up_history(workload, sim, rng=rng.fork(1))
        else:
            prof.push("bench.warmup")
            cost = warm_up_history(workload, sim, rng=rng.fork(1))
            prof.pop()

    tskd = as_tskd(system)
    enforced = tskd.use_tspar and tskd.queue_execution == "enforced"
    predict = exp.predict
    # Bare partitioners, DBCC and the enforced CC-free gate (which
    # assumes one precomputed whole-run schedule) keep the static path.
    policy = None
    if (predict is not None and predict.enabled and tskd is system
            and tskd.queue_execution != "enforced"):
        policy = OnlinePolicy(predict, exp.seed)

    tsdefer = tskd.make_filter(k, rng=rng.fork(3))
    instrument = Instrument.of(tracer, prof)
    # Faults target the CC execution engine only: the enforced CC-free
    # queue phase upholds a precomputed precedence schedule whose gating
    # assumes fixed thread placement, so chaos there would test the
    # enforcer's bookkeeping rather than the protocols under study.
    engine = make_engine(
        sim,
        dispatch_filter=tsdefer,
        progress_hooks=fan_out(tsdefer, policy),
        record_history=record_history,
        db=db,
        faults=injector,
        instrument=instrument,
    )

    registry = metrics if metrics is not None else MetricsRegistry()
    results = []
    clock = queue_retries = merged_residual = input_residual = contended = 0
    plan_rng = rng.fork(2)
    if policy is None:
        epochs = [(workload, plan_rng)]
    else:
        epochs = _epochs(workload, predict.epoch_txns, plan_rng)
        policy.install(tskd, tsdefer)
    try:
        for window, window_rng in epochs:
            if prof is not None:
                prof.push("bench.schedule")
            plan = tskd.prepare(window, k, cost, rng=window_rng)
            if prof is not None:
                prof.pop()
            phases = plan.phases
            epoch = []
            if enforced:
                gate = _gate_engine(plan.schedule,
                                 window.conflict_graph(tskd.isolation),
                                 engine, sim, db, record_history, instrument)
                epoch.append(gate.run(phases[0], start_time=clock))
                clock = epoch[0].end_time
                contended += gate.protocol.contended
                registry.ingest(gate.protocol.metrics_dict(), prefix="cc.")
                phases = phases[1:]
            epoch.extend(execute_phases(engine, phases, start_time=clock))
            clock = epoch[-1].end_time
            results.extend(epoch)
            queue_retries += epoch[0].counters.aborts
            schedule = plan.schedule
            if schedule is not None:
                merged_residual += schedule.merged_residual
                input_residual += schedule.input_residual
                if schedule.stats is not None:
                    registry.ingest(schedule.stats.as_dict(), prefix="tsgen.")
            if policy is not None:
                aborts = sum(r.counters.aborts for r in epoch)
                policy.end_epoch(tsdefer, aborts=aborts, dispatched=len(window))
    finally:
        if policy is not None:
            policy.uninstall(tskd)

    # An empty bundle cut into epochs has no epoch: one empty phase
    # stands in, so the totals read zero.
    total = merge_phase_results(results or [engine.run([[]] * k)])
    contended += engine.protocol.contended
    latencies = sorted(total.latencies)
    _populate_registry(registry, total, engine, tsdefer, latencies)
    if injector is not None:
        injector.publish(registry)  # no-op for an empty plan
    if policy is not None:
        policy.publish(registry)
    scheduled = tskd.use_tspar
    run = _run_result(
        registry, total, latencies,
        name=name or system_name(system),
        makespan_cycles=clock,
        contended_accesses=contended,
        scheduled_pct=((merged_residual / input_residual
                        if input_residual else 1.0) if scheduled else None),
        queue_retries=queue_retries if scheduled else None,
    )
    if policy is not None:
        object.__setattr__(run, "_policy", policy)
    if record_history:
        # Stash the engine so callers can inspect history / storage.
        object.__setattr__(run, "_engine", engine)
    return run


def run_open(
    workload: Workload,
    system: System,
    exp: ExperimentConfig,
    offered_tps: float,
    assignment: str = "round_robin",
    tracer: Optional[Tracer] = None,
    prof: Optional[Profiler] = None,
) -> tuple[RunResult, OpenSystemResult]:
    """Drive ``workload`` into ``system`` as a Poisson arrival stream.

    The open-system mode of :mod:`repro.sim.stream`: transactions arrive
    unbundled at ``offered_tps`` straight into the thread buffers, so
    only systems without a TsPAR phase run (DBCC and ``tskd-cc``).  The
    result carries the same populated metrics registry as
    :func:`run_system`.
    """
    tskd = as_tskd(system)
    if tskd.use_tspar or tskd.partitioner is not None:
        raise ValueError(
            "an arrival stream goes straight into the thread buffers (no "
            "TsPAR phase); use dbcc or tskd-cc")
    k = exp.sim.num_threads
    rng = Rng(exp.seed * 31 + 5)
    tsdefer = tskd.make_filter(k, rng=rng.fork(3))
    engine = make_engine(exp.sim, dispatch_filter=tsdefer,
                         progress_hooks=tsdefer,
                         instrument=Instrument.of(tracer, prof))
    osr = run_open_system(engine, list(workload), offered_tps,
                          rng=rng.fork(4), assignment=assignment)
    registry = MetricsRegistry()
    latencies = sorted(osr.phase.latencies)
    _populate_registry(registry, osr.phase, engine, tsdefer, latencies)
    run = _run_result(registry, osr.phase, latencies,
                      name=system_name(system),
                      makespan_cycles=osr.phase.end_time,
                      contended_accesses=engine.protocol.contended)
    return run, osr


def _epochs(workload: Workload, epoch_txns: int, rng: Rng):
    """Yield ``(epoch workload, planning rng)`` slices, one at a time.

    Built lazily so each epoch's workload, and the conflict graph it
    memoises, is freed before the next epoch is planned.
    """
    txns = list(workload)
    for i, start in enumerate(range(0, len(txns), epoch_txns), 1):
        yield (Workload(txns[start:start + epoch_txns],
                        name=f"{workload.name}-e{i}"), rng.fork(i))


def _gate_engine(schedule, graph, engine, sim, db, record_history, instrument):
    """The CC-free engine that runs a schedule's queue phase, gated.

    The scheduled order is upheld by dependency gating, so no CC
    bookkeeping runs at all (Section 6.1 footnote).  It shares committed
    versions and history with ``engine``, which runs the residual.
    """
    from ..core.enforced import ScheduleEnforcer

    enforcer = ScheduleEnforcer(schedule, graph)
    gate = make_engine(
        sim.with_(cc="none", cc_op_overhead=0, commit_overhead=0),
        db=db, dispatch_gate=enforcer, progress_hooks=enforcer,
        record_history=record_history, versions=engine.versions,
        history=engine.history, instrument=instrument,
    )
    enforcer.bind(gate)
    return gate


def policy_of(result: RunResult):
    """Adaptive policy behind a ``predict``-enabled run, or None.

    Used by artifact export to attach the final
    :meth:`~repro.predict.policy.OnlinePolicy.snapshot` and by tests to
    inspect steering/retune behaviour.
    """
    return getattr(result, "_policy", None)


def _populate_registry(
    registry: MetricsRegistry,
    total: PhaseResult,
    engine: MulticoreEngine,
    dispatch_filter,
    latencies: list[int],
) -> None:
    """Fold every component's instrumentation into the run's registry."""
    registry.ingest_counters(total.counters)
    registry.ingest(engine.protocol.metrics_dict(), prefix="cc.")
    engine.restart_policy.publish(registry)
    if dispatch_filter is not None:
        dispatch_filter.publish(registry)
    registry.histogram(
        "latency.service_cycles", LATENCY_BUCKETS_CYCLES,
        "per-transaction service latency (dispatch to completion)",
    ).observe_many(latencies)
    registry.histogram(
        "retries.per_txn", RETRY_BUCKETS,
        "aborted attempts per committed transaction",
    ).observe_many(total.retry_counts)


def _run_result(registry: MetricsRegistry, total: PhaseResult,
                latencies: list[int], **fields) -> RunResult:
    """The run's headline result over ``total``, its gauges published."""
    run = RunResult(
        committed=total.counters.committed,
        retries=total.counters.aborts,
        deferrals=total.counters.deferrals,
        wasted_cycles=total.counters.wasted_cycles,
        blocked_cycles=total.counters.blocked_cycles,
        num_threads=len(total.thread_busy),
        thread_busy_cycles=total.thread_busy,
        latency_p50=percentile(latencies, 0.50),
        latency_p95=percentile(latencies, 0.95),
        latency_p99=percentile(latencies, 0.99),
        metrics=registry,
        **fields,
    )
    _publish_run_gauges(registry, run)
    return run


def _publish_run_gauges(registry: MetricsRegistry, run: RunResult) -> None:
    """Derived headline values, as gauges next to the raw counters."""
    registry.gauge("run.throughput_txn_s").set(run.throughput)
    registry.gauge("run.retries_per_100k").set(run.retries_per_100k)
    registry.gauge("run.makespan_cycles").set(run.makespan_cycles)
    registry.gauge("run.imbalance_ratio").set(run.imbalance_ratio)
    registry.gauge("run.idle_threads").set(run.idle_threads)
    if run.scheduled_pct is not None:
        registry.gauge("run.scheduled_pct").set(run.scheduled_pct)


def engine_of(result: RunResult) -> MulticoreEngine:
    """Engine behind a ``record_history=True`` run (tests/diagnostics)."""
    engine = getattr(result, "_engine", None)
    if engine is None:
        raise ValueError("run_system was not called with record_history=True")
    return engine
