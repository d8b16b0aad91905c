"""Experiment runner: execute one workload under one system, measure.

A *system* is any of:

* a :class:`~repro.partition.Partitioner` — the baseline partitioning
  execution: CC-free partitions as thread buffers (with CC underneath, as
  in the paper's testbed), then the residual round-robin;
* a :class:`~repro.core.TSKD` instance — queues + residual, with TsDEFER
  installed on the engine;
* the string ``"dbcc"`` — DBx1000's default: round-robin buffers + CC.

Every run builds a fresh engine so protocol state never leaks between
systems, and all systems of one experiment share the same workload
objects (same skew bounds, same I/O stalls) and so the same conflict
graph, which :meth:`Workload.conflict_graph` memoises per isolation level.
"""

from __future__ import annotations

from typing import Optional, Union

from ..common.config import ExperimentConfig
from ..common.rng import Rng
from ..common.stats import Counters, RunResult, percentile
from ..core.tskd import TSKD
from ..faults import FaultInjector, FaultPlan
from ..obs.metrics import (
    LATENCY_BUCKETS_CYCLES,
    RETRY_BUCKETS,
    MetricsRegistry,
)
from ..obs.prof import Profiler, get_active_profiler
from ..obs.tracing import Tracer
from ..partition.base import Partitioner
from ..sim.engine import MulticoreEngine
from ..sim.fastengine import make_engine
from ..sim.warmup import warm_up_history
from ..txn.cost import CostModel
from ..txn.workload import Workload, split_round_robin

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

    predict = exp.predict
    if (predict is not None and predict.enabled and isinstance(system, TSKD)
            and system.queue_execution != "enforced"):
        # Adaptive mode re-plans per epoch against live sketch heat; the
        # enforced CC-free gate assumes one precomputed whole-run
        # schedule, so it keeps the static path.
        return _run_adaptive(
            workload, system, exp, cost, name, record_history,
            db, tracer, metrics, injector, prof, rng,
        )

    dispatch_filter = None
    progress_hooks = None
    schedule = None
    phases: list[list[list]] = []

    if isinstance(system, str):
        if system.lower() != "dbcc":
            raise ValueError(f"unknown system string {system!r}")
        phases = [split_round_robin(list(workload), k)]
    elif isinstance(system, TSKD):
        graph = None
        if system.use_tspar:
            if prof is not None:
                prof.push("bench.graph")
            graph = workload.conflict_graph(system.isolation)
            if prof is not None:
                prof.pop()
        if prof is not None:
            prof.push("bench.schedule")
        plan = system.prepare(workload, k, cost, rng=rng.fork(2), graph=graph)
        if prof is not None:
            prof.pop()
        schedule = plan.schedule
        phases = plan.phases
        tsdefer = system.make_filter(k, rng=rng.fork(3))
        if tsdefer is not None:
            dispatch_filter = tsdefer
            progress_hooks = tsdefer
    else:  # baseline partitioner: sees access sets only, not cost estimates
        if prof is not None:
            prof.push("bench.graph")
        graph = workload.conflict_graph()
        if prof is not None:
            prof.pop()
            prof.push("bench.schedule")
        plan = system.partition(workload, k, graph=graph, cost=None,
                                rng=rng.fork(2))
        if prof is not None:
            prof.pop()
        plan.validate(workload)
        phases = [[list(p) for p in plan.parts]]
        if plan.residual:
            phases.append(split_round_robin(plan.residual, k))

    totals = Counters()
    busy = [0] * k
    clock = 0
    queue_retries: Optional[int] = None
    latencies: list[int] = []
    retry_counts: list[int] = []
    contended = 0
    registry = metrics if metrics is not None else MetricsRegistry()

    enforced = (
        isinstance(system, TSKD)
        and system.use_tspar
        and system.queue_execution == "enforced"
        and schedule is not None
    )
    if enforced:
        # Phase 1 CC-free: the scheduled order is upheld by dependency
        # gating, so no CC bookkeeping runs at all (Section 6.1 footnote).
        from ..core.enforced import ScheduleEnforcer

        enforcer = ScheduleEnforcer(schedule, graph)
        free_sim = sim.with_(cc="none", cc_op_overhead=0, commit_overhead=0)
        gate_engine = make_engine(
            free_sim, db=db, dispatch_gate=enforcer, progress_hooks=enforcer,
            record_history=record_history, tracer=tracer, prof=prof,
        )
        enforcer.bind(gate_engine)
        result = gate_engine.run(phases[0])
        clock = result.end_time
        totals.merge(result.counters)
        latencies.extend(result.latencies)
        retry_counts.extend(result.retry_counts)
        for i, b in enumerate(result.thread_busy):
            busy[i] += b
        queue_retries = result.counters.aborts
        contended += gate_engine.protocol.contended
        registry.ingest(gate_engine.protocol.metrics_dict(), prefix="cc.")
        remaining = phases[1:]
        shared_versions = gate_engine.versions
        shared_history = gate_engine.history
    else:
        remaining = phases
        shared_versions = None
        shared_history = None

    # Faults target the CC execution engine only: the enforced CC-free
    # queue phase upholds a precomputed precedence schedule whose gating
    # assumes fixed thread placement, so chaos there would test the
    # enforcer's bookkeeping rather than the protocols under study.
    engine = make_engine(
        sim,
        dispatch_filter=dispatch_filter,
        progress_hooks=progress_hooks,
        record_history=record_history,
        db=db,
        versions=shared_versions,
        history=shared_history,
        tracer=tracer,
        faults=injector,
        prof=prof,
    )
    if dispatch_filter is not None:
        # Bounded future probing reads remote queues past headp.
        dispatch_filter.table.bind_buffers(engine.buffer_of)
        if injector is not None and injector.enabled:
            dispatch_filter.table.bind_corruption(injector.probe_corrupt)
        if prof is not None:
            dispatch_filter.table.bind_profiler(prof)

    for phase_idx, buffers in enumerate(remaining):
        result = engine.run(buffers, start_time=clock)
        clock = result.end_time
        totals.merge(result.counters)
        latencies.extend(result.latencies)
        retry_counts.extend(result.retry_counts)
        for i, b in enumerate(result.thread_busy):
            busy[i] += b
        if phase_idx == 0 and schedule is not None and not enforced:
            queue_retries = result.counters.aborts
    contended += engine.protocol.contended
    latencies.sort()

    _populate_registry(registry, totals, engine, dispatch_filter, schedule,
                       latencies, retry_counts)
    if injector is not None:
        injector.publish(registry)  # no-op for an empty plan
    run = RunResult(
        name=name or system_name(system),
        committed=totals.committed,
        makespan_cycles=clock,
        retries=totals.aborts,
        deferrals=totals.deferrals,
        contended_accesses=contended,
        wasted_cycles=totals.wasted_cycles,
        blocked_cycles=totals.blocked_cycles,
        num_threads=k,
        thread_busy_cycles=tuple(busy),
        scheduled_pct=schedule.scheduled_pct if schedule is not None else None,
        queue_retries=queue_retries,
        latency_p50=percentile(latencies, 0.50),
        latency_p95=percentile(latencies, 0.95),
        latency_p99=percentile(latencies, 0.99),
        metrics=registry,
    )
    _publish_run_gauges(registry, run)
    if record_history:
        # Stash the engine so callers can inspect history / storage.
        object.__setattr__(run, "_engine", engine)
    return run


def _run_adaptive(
    workload: Workload,
    system: TSKD,
    exp: ExperimentConfig,
    cost: CostModel,
    name: Optional[str],
    record_history: bool,
    db,
    tracer: Optional[Tracer],
    metrics: Optional[MetricsRegistry],
    injector: Optional[FaultInjector],
    prof: Optional[Profiler],
    rng: Rng,
) -> RunResult:
    """Epochized adaptive execution (``exp.predict``; docs/adaptive.md).

    Instead of one whole-workload schedule, the bundle is cut into
    ``predict.epoch_txns``-sized epochs planned and executed back to back
    on one persistent engine — the serving pipeline's structure, driven
    from the batch runner.  Between epochs the
    :class:`~repro.predict.policy.OnlinePolicy` decays its sketch,
    refreshes the hot snapshot that steers the next epoch's TSgen pass,
    and retunes TsDEFER from witnessed-conflict deltas.  Each epoch is
    planned on its own conflict graph, exactly as
    :meth:`~repro.serve.pipeline.EpochExecutor.schedule` plans a served
    epoch, so planning costs O(epoch conflict degree) per transaction,
    not O(bundle conflict degree).

    The RNG forks mirror the static path (fork(2) for planning, fork(3)
    for the filter) with a per-epoch sub-fork, so two identical seeded
    adaptive runs are bit-identical.
    """
    from ..predict.policy import HookFanout, OnlinePolicy

    sim = exp.sim
    k = sim.num_threads
    predict = exp.predict
    policy = OnlinePolicy(predict, exp.seed)

    tsdefer = system.make_filter(k, rng=rng.fork(3))
    hooks = HookFanout([tsdefer, policy])
    engine = make_engine(
        sim,
        dispatch_filter=tsdefer,
        progress_hooks=hooks,
        record_history=record_history,
        db=db,
        tracer=tracer,
        faults=injector,
        prof=prof,
    )
    if tsdefer is not None:
        tsdefer.table.bind_buffers(engine.buffer_of)
        if injector is not None and injector.enabled:
            tsdefer.table.bind_corruption(injector.probe_corrupt)
        if prof is not None:
            tsdefer.table.bind_profiler(prof)
    steering = predict.steer and system.use_tspar
    if steering:
        system.tspar.tsgen_kwargs["heat"] = policy
    if predict.retune and tsdefer is not None:
        tsdefer.heat = policy

    registry = metrics if metrics is not None else MetricsRegistry()
    totals = Counters()
    busy = [0] * k
    clock = 0
    queue_retries = 0
    latencies: list[int] = []
    retry_counts: list[int] = []
    merged_residual = 0
    input_residual = 0

    txns = list(workload)
    chunk = predict.epoch_txns
    prep_rng = rng.fork(2)
    epochs = 0
    try:
        for start in range(0, len(txns), chunk):
            epochs += 1
            sub = Workload(txns[start:start + chunk],
                           name=f"{workload.name}-e{epochs}")
            if prof is not None:
                prof.push("bench.schedule")
            plan = system.prepare(sub, k, cost, rng=prep_rng.fork(epochs))
            if prof is not None:
                prof.pop()
            schedule = plan.schedule
            epoch_aborts = 0
            for phase_idx, buffers in enumerate(plan.phases):
                result = engine.run(buffers, start_time=clock)
                clock = result.end_time
                totals.merge(result.counters)
                epoch_aborts += result.counters.aborts
                latencies.extend(result.latencies)
                retry_counts.extend(result.retry_counts)
                for i, b in enumerate(result.thread_busy):
                    busy[i] += b
                if phase_idx == 0 and schedule is not None:
                    queue_retries += result.counters.aborts
            if schedule is not None:
                merged_residual += schedule.merged_residual
                input_residual += schedule.input_residual
                if schedule.stats is not None:
                    registry.ingest(schedule.stats.as_dict(), prefix="tsgen.")
            policy.end_epoch(tsdefer, aborts=epoch_aborts,
                             dispatched=len(sub))
    finally:
        if steering:
            system.tspar.tsgen_kwargs.pop("heat", None)

    contended = engine.protocol.contended
    latencies.sort()
    _populate_registry(registry, totals, engine, tsdefer, None,
                       latencies, retry_counts)
    if injector is not None:
        injector.publish(registry)
    policy.publish(registry)
    scheduled_pct = None
    if system.use_tspar:
        scheduled_pct = (merged_residual / input_residual
                         if input_residual else 1.0)
    run = RunResult(
        name=name or system_name(system),
        committed=totals.committed,
        makespan_cycles=clock,
        retries=totals.aborts,
        deferrals=totals.deferrals,
        contended_accesses=contended,
        wasted_cycles=totals.wasted_cycles,
        blocked_cycles=totals.blocked_cycles,
        num_threads=k,
        thread_busy_cycles=tuple(busy),
        scheduled_pct=scheduled_pct,
        queue_retries=queue_retries if system.use_tspar else None,
        latency_p50=percentile(latencies, 0.50),
        latency_p95=percentile(latencies, 0.95),
        latency_p99=percentile(latencies, 0.99),
        metrics=registry,
    )
    _publish_run_gauges(registry, run)
    object.__setattr__(run, "_policy", policy)
    if record_history:
        object.__setattr__(run, "_engine", engine)
    return run


def policy_of(result: RunResult):
    """Adaptive policy behind a ``predict``-enabled run, or None.

    Used by artifact export to attach the final
    :meth:`~repro.predict.policy.OnlinePolicy.snapshot` and by tests to
    inspect steering/retune behaviour.
    """
    return getattr(result, "_policy", None)


def _populate_registry(
    registry: MetricsRegistry,
    totals: Counters,
    engine: MulticoreEngine,
    dispatch_filter,
    schedule,
    latencies: list[int],
    retry_counts: list[int],
) -> None:
    """Fold every component's instrumentation into the run's registry."""
    registry.ingest_counters(totals)
    registry.ingest(engine.protocol.metrics_dict(), prefix="cc.")
    engine.restart_policy.publish(registry)
    if dispatch_filter is not None:
        dispatch_filter.publish(registry)
    if schedule is not None and schedule.stats is not None:
        registry.ingest(schedule.stats.as_dict(), prefix="tsgen.")
    registry.histogram(
        "latency.service_cycles", LATENCY_BUCKETS_CYCLES,
        "per-transaction service latency (dispatch to completion)",
    ).observe_many(latencies)
    registry.histogram(
        "retries.per_txn", RETRY_BUCKETS,
        "aborted attempts per committed transaction",
    ).observe_many(retry_counts)


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
