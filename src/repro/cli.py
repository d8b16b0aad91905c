"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

* ``run``        — execute one workload under one system, print metrics;
* ``compare``    — execute the same bundle under several systems;
* ``experiment`` — regenerate paper figures (wraps repro.bench.experiments);
* ``faults``     — chaos run: inject a seeded fault plan, report recovery;
* ``tune``       — pilot-run TsDEFER parameter tuning for a workload;
* ``serve``      — run the live scheduling service (repro.serve);
* ``loadgen``    — drive a running server with a seeded client fleet;
* ``trace``      — replay a saved JSONL span log as a timeline, or
  convert it to Chrome trace-event JSON (``--chrome``);
* ``report``     — render a saved JSON artifact (run, serve, or bench)
  for humans; exits 2 on unknown artifact versions;
* ``watch``      — live terminal dashboard for a running server;
* ``perf``       — time the pinned perf cases, write ``BENCH_<rev>.json``.

Examples::

    python -m repro run --workload ycsb --theta 0.9 --system tskd-s
    python -m repro run --workload ycsb --system tskd-s \\
        --export-json out.json --trace out.trace.jsonl
    python -m repro run --workload ycsb --system tskd-cc --profile
    python -m repro run --workload ycsb --system tskd-cc --offered-tps 30000
    python -m repro compare --workload tpcc --cross-pct 0.35 --bundle 1000
    python -m repro experiment fig4a fig5g --quick
    python -m repro experiment fig5a --quick --profile
    python -m repro faults --scenario chaos --restart-policy backoff
    python -m repro faults --crashes 2 --stalls 4 --replay-check
    python -m repro tune --workload ycsb --theta 0.8
    python -m repro serve --port 7407 --system tskd-0 --export-json serve.json
    python -m repro loadgen --port 7407 --txns 1000 --seed 0 --drain
    python -m repro watch --port 7407 --interval 1.0
    python -m repro trace out.trace.jsonl --tid 17
    python -m repro trace out.trace.jsonl --chrome out.chrome.json
    python -m repro report out.json
    python -m repro perf --quick
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Sequence

from .bench.experiments import main as experiments_main
from .bench.runner import SYSTEM_SPECS, make_system, run_open, run_system
from .bench.workloads import (
    TpccGenerator,
    YcsbGenerator,
    apply_io_latency,
    apply_runtime_skew,
)
from .common.config import (
    ENGINES,
    RESTART_POLICIES,
    SERVE_ASSIGNMENTS,
    ConfigError,
    ExperimentConfig,
    IoLatencyConfig,
    PredictConfig,
    RuntimeSkewConfig,
    ServeConfig,
    SimConfig,
    TpccConfig,
    YcsbConfig,
)
from .core.autotune import tune_tsdefer
from .obs import (
    BENCH_SCHEMA_ID,
    SCHEMA_ID,
    SERVE_SCHEMA_ID,
    ArtifactError,
    JsonlTracer,
    Profiler,
    chrome_from_serve_epochs,
    chrome_trace_events,
    export_run,
    load_trace,
    render_artifact,
    render_profile,
    render_serve_artifact,
    render_timeline,
    render_trace_summary,
    validate_artifact,
    validate_bench_artifact,
    validate_serve_artifact,
    write_chrome_trace,
)

#: System spec names accepted by --system.  Append "!" to a tskd-* name
#: for enforced CC-free queue execution (e.g. "tskd-s!").
SYSTEMS = SYSTEM_SPECS


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workload", choices=("ycsb", "tpcc"), default="ycsb")
    p.add_argument("--bundle", type=int, default=1000,
                   help="transactions per bundle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", type=float, default=0.8,
                   help="YCSB Zipfian skew")
    p.add_argument("--records", type=int, default=2_000_000,
                   help="YCSB table size")
    p.add_argument("--warehouses", type=int, default=40,
                   help="TPC-C warehouse count")
    p.add_argument("--cross-pct", type=float, default=0.25,
                   help="TPC-C cross-warehouse fraction (c%%)")
    p.add_argument("--threads", type=int, default=20)
    p.add_argument("--cc", default="occ",
                   help="CC protocol (occ/silo/tictoc/nowait/waitdie/mvcc/mvcc_ser)")
    p.add_argument("--no-skew", action="store_true",
                   help="disable the runtime-skew extension")
    p.add_argument("--io", type=int, default=0, metavar="L_IO",
                   help="enable the I/O-latency extension at this l_IO")
    p.add_argument("--restart-policy", choices=RESTART_POLICIES,
                   default="immediate",
                   help="what aborted transactions do next (repro.faults)")
    p.add_argument("--backoff-base", type=int, default=2_000,
                   help="initial backoff span in cycles (policy=backoff)")
    p.add_argument("--backoff-cap", type=int, default=200_000,
                   help="max backoff span in cycles (policy=backoff)")
    p.add_argument("--engine", choices=ENGINES, default="fast",
                   help="DES event-loop implementation; both are "
                        "bit-identical (repro.sim.fastengine)")


def _build(args) -> tuple:
    exp = ExperimentConfig(
        sim=SimConfig(num_threads=args.threads, cc=args.cc,
                      restart_policy=args.restart_policy,
                      backoff_base=args.backoff_base,
                      backoff_cap=args.backoff_cap,
                      engine=args.engine),
        skew=None if args.no_skew else RuntimeSkewConfig(),
        io=IoLatencyConfig(l_io=args.io),
        bundle_size=args.bundle,
        seed=args.seed,
        predict=PredictConfig() if getattr(args, "adaptive", False) else None,
    )
    if args.workload == "ycsb":
        gen = YcsbGenerator(YcsbConfig(num_records=args.records,
                                       theta=args.theta), seed=args.seed)
    else:
        gen = TpccGenerator(TpccConfig(num_warehouses=args.warehouses,
                                       cross_pct=args.cross_pct),
                            seed=args.seed)
    workload = gen.make_workload(args.bundle)
    if exp.skew is not None:
        apply_runtime_skew(workload, exp.skew, exp.sim)
    if exp.io.enabled:
        apply_io_latency(workload, exp.io, seed=args.seed)
    return workload, exp


def _make_system(name: str):
    try:
        return make_system(name)
    except ValueError as e:
        raise SystemExit(str(e))


def _print_result(result) -> None:
    print(f"{result.name:24s} {result.throughput:>11,.0f} txn/s  "
          f"{result.retries_per_100k:>9,.0f} retr/100k  "
          f"p50={result.latency_p50:,}cy p99={result.latency_p99:,}cy"
          + (f"  s%={result.scheduled_pct * 100:.0f}"
             if result.scheduled_pct is not None else ""))


def cmd_run(args) -> int:
    workload, exp = _build(args)
    if args.adaptive and args.offered_tps:
        raise SystemExit(
            "--adaptive drives the epoched batch path (repro.predict); it "
            "does not combine with --offered-tps arrival streams")
    # Open output sinks before the (potentially long) run so a bad path
    # fails immediately instead of discarding finished work.
    if args.export_json:
        try:
            open(args.export_json, "a", encoding="utf-8").close()
        except OSError as e:
            raise SystemExit(f"cannot write artifact {args.export_json!r}: {e}")
    try:
        tracer = JsonlTracer(args.trace) if args.trace else None
    except OSError as e:
        raise SystemExit(f"cannot write trace {args.trace!r}: {e}")
    prof = None
    if args.profile:
        prof = Profiler()
        prof.start()
    open_system = None
    try:
        if args.offered_tps:
            try:
                result, osr = run_open(
                    workload, _make_system(args.system), exp,
                    args.offered_tps, assignment=args.arrival_assignment,
                    tracer=tracer, prof=prof)
            except ValueError as e:
                raise SystemExit(f"--offered-tps: {e}")
            open_system = osr.to_dict()
        else:
            result = run_system(workload, _make_system(args.system), exp,
                                tracer=tracer, prof=prof)
    finally:
        if prof is not None and prof.running:
            prof.stop()
        if tracer is not None:
            tracer.close()
    _print_result(result)
    from .bench.runner import policy_of

    policy = policy_of(result)
    if policy is not None:
        snap = policy.snapshot()
        print(f"predict: {snap['epoch']} epochs  "
              f"hot_keys={snap['hot_keys']}  "
              f"boosts={snap['defer_boosts']}  "
              f"retunes={len(snap['retunes'])}  "
              f"drift_events={snap['drift_events']}")
    if prof is not None:
        print()
        print(render_profile(prof.to_dict()))
    if open_system is not None:
        print(f"open-system: offered {open_system['offered_tps']:,.0f} txn/s  "
              f"completed {open_system['completed_tps']:,.0f} txn/s  "
              + ("SATURATED" if open_system["saturated"] else "stable")
              + f"  arrival p99={open_system['latency_p99']:,}cy")
    if tracer is not None:
        print(f"trace: {tracer.emitted} events -> {args.trace}")
    if args.export_json:
        export_run(args.export_json, result, config=exp,
                   trace_path=args.trace, workload=args.workload,
                   open_system=open_system,
                   profile=prof.to_dict() if prof is not None else None,
                   predict=policy.snapshot() if policy is not None else None)
        print(f"artifact: {args.export_json}")
    return 0


#: (FaultSpec field, CLI option help) for the faults subcommand's
#: override knobs; None means "keep the scenario preset's value".
_FAULT_KNOBS = (
    ("spurious_aborts", "forced aborts of in-flight transactions"),
    ("stalls", "transient thread stalls"),
    ("stall_cycles", "mean stall duration in cycles"),
    ("crashes", "fail-stop thread crashes (buffers redistributed)"),
    ("io_spikes", "transient I/O latency spike windows"),
    ("io_spike_cycles", "extra commit-stall cycles inside a spike"),
    ("io_spike_len", "I/O spike window length in cycles"),
    ("probe_corruptions", "progress-table corruption windows"),
    ("probe_corruption_len", "corruption window length in cycles"),
    ("horizon", "virtual-cycle span faults are drawn from"),
)


def _build_fault_spec(args):
    """Scenario preset, with any explicitly-passed knob overriding it."""
    from .bench.experiments import fault_scenario

    spec = fault_scenario(args.scenario, seed=args.fault_seed)
    overrides = {name: getattr(args, name)
                 for name, _ in _FAULT_KNOBS
                 if getattr(args, name) is not None}
    return spec.with_(**overrides) if overrides else spec


def cmd_faults(args) -> int:
    from .bench.runner import system_name
    from .common.hashing import config_hash
    from .faults import FaultPlan
    from .obs.artifact import build_artifact

    workload, exp = _build(args)
    spec = _build_fault_spec(args)
    plan = FaultPlan.compile(spec, exp.sim.num_threads)
    print(f"fault plan: {len(plan.events)} events over "
          f"{spec.horizon:,} cycles  digest={plan.digest[:16]}")
    for ev in plan.events:
        scope = f" thread={ev.thread}" if ev.thread >= 0 else ""
        extra = f" duration={ev.duration:,}" if ev.duration else ""
        extra += f" magnitude={ev.magnitude:,}" if ev.magnitude else ""
        print(f"  t={ev.when:>12,}  {ev.kind:18s}{scope}{extra}")

    try:
        tracer = JsonlTracer(args.trace) if args.trace else None
    except OSError as e:
        raise SystemExit(f"cannot write trace {args.trace!r}: {e}")
    try:
        result = run_system(workload, _make_system(args.system), exp,
                            fault_plan=plan, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()

    _print_result(result)
    print(f"policy: {exp.sim.restart_policy}")
    reg = result.metrics
    for key in sorted(reg.to_dict().get("counters", {})):
        if key.startswith(("faults.", "restart.")):
            print(f"  {key:32s} {reg.value(key):,.0f}")
    mean_rec = reg.value("faults.mean_recovery_cycles")
    if mean_rec is not None:
        print(f"  {'faults.mean_recovery_cycles':32s} {mean_rec:,.0f}")

    if tracer is not None:
        print(f"trace: {tracer.emitted} events -> {args.trace}")
    if args.export_json:
        export_run(args.export_json, result, config=exp,
                   workload=args.workload, trace_path=args.trace)
        print(f"artifact: {args.export_json}")

    if args.replay_check:
        again = run_system(workload, _make_system(args.system), exp,
                           fault_plan=plan,
                           name=system_name(_make_system(args.system)))
        h1 = config_hash(build_artifact(result, config=exp,
                                        workload=args.workload))
        h2 = config_hash(build_artifact(again, config=exp,
                                        workload=args.workload))
        if h1 != h2:
            print(f"replay-check: FAILED ({h1[:16]} != {h2[:16]})")
            return 1
        print(f"replay-check: ok (artifact digest {h1[:16]})")
    return 0


def cmd_trace(args) -> int:
    """Replay a span log — or convert it for chrome://tracing.

    ``--chrome`` accepts either a JSONL span log (run/faults --trace) or
    a ``repro.serve/1`` drain artifact with epoch records; both become
    one trace-event JSON viewable in Perfetto / chrome://tracing.
    """
    if args.chrome:
        try:
            with open(args.path, encoding="utf-8") as f:
                head = f.read(1)
                f.seek(0)
                # A serve artifact is one JSON object; a span log is
                # JSONL whose first line is also an object — so sniff by
                # parsing the whole file first and fall back to JSONL.
                doc = json.load(f) if head == "{" else None
        except OSError as e:
            raise SystemExit(f"cannot read trace {args.path!r}: {e}")
        except json.JSONDecodeError:
            doc = None  # multi-line JSONL: not a single document
        if isinstance(doc, dict) and doc.get("schema") == SERVE_SCHEMA_ID:
            if not doc.get("epochs"):
                raise SystemExit(
                    f"{args.path!r} has no epoch records; re-export the "
                    "serve artifact from a server run with epochs")
            trace_events = chrome_from_serve_epochs(doc["epochs"])
        else:
            try:
                events = list(load_trace(args.path))
            except (OSError, json.JSONDecodeError, KeyError) as e:
                raise SystemExit(
                    f"{args.path!r} is not a JSONL span log: {e}")
            trace_events = chrome_trace_events(events,
                                               include_ops=args.include_ops)
        try:
            write_chrome_trace(args.chrome, trace_events)
        except OSError as e:
            raise SystemExit(f"cannot write {args.chrome!r}: {e}")
        print(f"chrome trace: {len(trace_events)} events -> {args.chrome}")
        print("open in chrome://tracing or https://ui.perfetto.dev")
        return 0
    try:
        events = list(load_trace(args.path))
    except OSError as e:
        raise SystemExit(f"cannot read trace {args.path!r}: {e}")
    except (json.JSONDecodeError, KeyError) as e:
        raise SystemExit(f"{args.path!r} is not a JSONL span log: {e}")
    print(render_timeline(events, limit=args.limit, thread=args.thread,
                          tid=args.tid))
    print()
    print(render_trace_summary(events))
    return 0


def cmd_report(args) -> int:
    """Render any repro artifact; exit 2 on unknown schema versions.

    Exit 2 (vs the generic failure 1) lets scripts distinguish "this
    file is from a newer repro than me" from "this file is corrupt".
    """
    try:
        with open(args.path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise SystemExit(f"cannot read artifact {args.path!r}: {e}")
    except json.JSONDecodeError as e:
        raise SystemExit(f"{args.path!r} is not JSON: {e}")
    schema = doc.get("schema") if isinstance(doc, dict) else None
    known = (SCHEMA_ID, SERVE_SCHEMA_ID, BENCH_SCHEMA_ID)
    if schema not in known:
        print(f"unknown artifact version {schema!r} in {args.path!r}; "
              f"this repro understands {', '.join(known)}",
              file=sys.stderr)
        return 2
    try:
        if schema == SERVE_SCHEMA_ID:
            validate_serve_artifact(doc)
            print(render_serve_artifact(doc))
        elif schema == BENCH_SCHEMA_ID:
            validate_bench_artifact(doc)
            from .bench.perf import render_bench

            print(render_bench(doc))
        else:
            validate_artifact(doc)
            print(render_artifact(doc))
    except ArtifactError as e:
        raise SystemExit(f"invalid artifact {args.path!r}: {e}")
    return 0


def cmd_compare(args) -> int:
    workload, exp = _build(args)
    for name in args.systems or ["dbcc", "strife", "tskd-s", "tskd-cc"]:
        result = run_system(workload, _make_system(name), exp, name=name)
        _print_result(result)
    return 0


def _build_serve_config(args) -> ServeConfig:
    try:
        return ServeConfig(
            host=args.host,
            port=args.port,
            system=args.system,
            epoch_max_txns=args.epoch_max_txns,
            epoch_max_ms=args.epoch_max_ms,
            queue_limit=args.queue_limit,
            retry_after_ms=args.retry_after_ms,
            assignment=args.assignment,
            record_epoch_tids=args.record_epoch_tids,
            shards=args.shards,
        )
    except ConfigError as e:
        raise SystemExit(str(e))


async def _serve_main(serve_cfg: ServeConfig, exp: ExperimentConfig,
                      args) -> int:
    import signal

    from .serve import ServeServer

    try:
        server = ServeServer(serve_cfg, exp, export_path=args.export_json,
                             exit_on_drain=args.exit_on_drain,
                             trace_path=args.trace)
    except ConfigError as e:
        raise SystemExit(str(e))
    await server.start()
    topology = (f", {serve_cfg.shards} shards" if serve_cfg.shards > 1 else "")
    print(f"serving {serve_cfg.system} on {serve_cfg.host}:{server.port}  "
          f"(epochs: {serve_cfg.epoch_max_txns} txns / "
          f"{serve_cfg.epoch_max_ms} ms, queue limit "
          f"{serve_cfg.queue_limit}{topology})", flush=True)
    loop = asyncio.get_running_loop()
    interrupted = asyncio.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, interrupted.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX loops
            pass
    serve_task = asyncio.create_task(server.serve_forever())
    stop_task = asyncio.create_task(interrupted.wait())
    await asyncio.wait({serve_task, stop_task},
                       return_when=asyncio.FIRST_COMPLETED)
    # Either a drain frame closed the listener (exit_on_drain) or a
    # signal arrived: drain gracefully — finish every in-flight epoch,
    # write the artifact — then close.
    summary = await server.drain()
    server._server.close()
    await serve_task
    await server.close_connections()
    stop_task.cancel()
    print(f"drained: {summary['committed']:,} committed over "
          f"{summary['epochs']} epochs, {summary['rejected']:,} rejected  "
          f"p99={summary['latency_ms']['p99']} ms")
    if args.trace:
        print(f"trace: {args.trace}")
    if args.export_json:
        print(f"artifact: {args.export_json}")
    return 0


def cmd_serve(args) -> int:
    if args.trace and args.shards > 1:
        # Span tracing is per-engine; shard workers run in their own
        # processes and cannot stream into one JSONL sink.  Fail before
        # binding the port so scripts see a clean config error (exit 2).
        print("cross-process tracing unsupported; use --shards 1",
              file=sys.stderr)
        return 2
    serve_cfg = _build_serve_config(args)
    exp = ExperimentConfig(
        sim=SimConfig(num_threads=args.threads, cc=args.cc,
                      engine=args.engine),
        skew=None,
        seed=args.seed,
        predict=PredictConfig() if args.adaptive else None,
    )
    return asyncio.run(_serve_main(serve_cfg, exp, args))


def _build_loadgen_workload(args):
    """Seeded transaction stream for loadgen (no engine config needed)."""
    if args.workload == "ycsb":
        gen = YcsbGenerator(YcsbConfig(num_records=args.records,
                                       theta=args.theta), seed=args.seed)
    else:
        gen = TpccGenerator(TpccConfig(num_warehouses=args.warehouses,
                                       cross_pct=args.cross_pct),
                            seed=args.seed)
    workload = gen.make_workload(args.txns)
    if not args.no_skew:
        apply_runtime_skew(workload, RuntimeSkewConfig(), SimConfig())
    if args.io:
        apply_io_latency(workload, IoLatencyConfig(l_io=args.io),
                         seed=args.seed)
    return workload


def cmd_loadgen(args) -> int:
    from .serve import run_loadgen

    workload = _build_loadgen_workload(args)
    try:
        report = asyncio.run(run_loadgen(
            args.host, args.port, list(workload),
            clients=args.clients, mode=args.mode,
            offered_tps=args.offered_tps, seed=args.seed,
            drain=args.drain, trace_path=args.trace,
            flash_every_s=args.flash_every, flash_burst_s=args.flash_burst,
            flash_mult=args.flash_mult,
        ))
    except ConnectionError as e:
        raise SystemExit(f"cannot reach server at {args.host}:{args.port}: {e}")
    except ValueError as e:
        raise SystemExit(str(e))
    doc = report.to_dict()
    if report.drained is not None:
        doc["server"] = report.drained
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if report.errors == 0 and report.committed == report.txns else 1


def cmd_watch(args) -> int:
    from .obs.live import watch

    try:
        asyncio.run(watch(args.host, args.port, interval_s=args.interval,
                          iterations=args.iterations))
    except ConnectionError as e:
        raise SystemExit(f"cannot reach server at {args.host}:{args.port}: {e}")
    except KeyboardInterrupt:
        pass
    return 0


def cmd_perf(args) -> int:
    from .bench.perf import compare_bench, load_bench, render_bench, run_perf

    path, doc = run_perf(quick=args.quick, out_dir=args.out, rev=args.rev)
    print(render_bench(doc))
    print(f"wrote {path}")
    if args.compare is not None:
        ok, report = compare_bench(doc, load_bench(args.compare))
        print(report)
        if not ok:
            return 1
    return 0


def cmd_tune(args) -> int:
    workload, exp = _build(args)
    report = tune_tsdefer(workload, exp, instance=args.instance)
    best = report.best
    print(f"best TsDEFER config after {len(report.trials)} pilot runs:")
    print(f"  #lookups={best.num_lookups}  deferp%={best.defer_prob}"
          f"  future_depth={best.future_depth}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["experiment"] and not {"-h", "--help"} & set(argv[1:]):
        # Hand the whole tail to the experiments CLI: argparse.REMAINDER
        # refuses to swallow a leading flag (``experiment --list``).
        return experiments_main(argv[1:])
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one workload under one system")
    _add_workload_args(p_run)
    p_run.add_argument("--system", default="tskd-s", help=f"one of {SYSTEMS}")
    p_run.add_argument("--offered-tps", type=float, default=None,
                       help="drive a Poisson arrival stream at this rate "
                            "instead of a pre-bundled batch (dbcc/tskd-cc); "
                            "latency then includes queueing delay")
    p_run.add_argument("--arrival-assignment", default="round_robin",
                       choices=("round_robin", "random", "least_loaded"),
                       help="how arrivals are dealt to threads "
                            "(with --offered-tps)")
    p_run.add_argument("--export-json", metavar="PATH",
                       help="write a schema-validated run artifact here")
    p_run.add_argument("--trace", metavar="PATH",
                       help="stream engine span events to this JSONL file")
    p_run.add_argument("--profile", action="store_true",
                       help="profile the run: print a per-section "
                            "self-time table (repro.obs.prof)")
    p_run.add_argument("--adaptive", action="store_true",
                       help="enable the repro.predict conflict predictor: "
                            "epoched execution with sketch-steered TSgen "
                            "assignment and online TsDEFER retuning")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare systems on one bundle")
    _add_workload_args(p_cmp)
    p_cmp.add_argument("systems", nargs="*", help=f"systems ({SYSTEMS})")
    p_cmp.set_defaults(func=cmd_compare)

    p_exp = sub.add_parser("experiment",
                           help="regenerate paper figures/tables")
    p_exp.add_argument("rest", nargs=argparse.REMAINDER)
    p_exp.set_defaults(func=None)

    p_faults = sub.add_parser(
        "faults", help="chaos run: inject a seeded fault plan")
    _add_workload_args(p_faults)
    p_faults.add_argument("--system", default="dbcc",
                          help=f"one of {SYSTEMS}")
    p_faults.add_argument("--scenario", default="chaos",
                          help="named preset (none/aborts/stalls/crashes/"
                               "io/chaos); knobs below override it")
    p_faults.add_argument("--fault-seed", type=int, default=0,
                          help="seed the fault plan is compiled from")
    for knob, help_text in _FAULT_KNOBS:
        p_faults.add_argument(f"--{knob.replace('_', '-')}", type=int,
                              default=None, dest=knob, help=help_text)
    p_faults.add_argument("--export-json", metavar="PATH",
                          help="write a schema-validated run artifact here")
    p_faults.add_argument("--trace", metavar="PATH",
                          help="stream span events (incl. faults) to JSONL")
    p_faults.add_argument("--replay-check", action="store_true",
                          help="run twice, assert identical artifact digests")
    p_faults.set_defaults(func=cmd_faults)

    p_srv = sub.add_parser(
        "serve", help="run the live scheduling service (repro.serve)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=7407,
                       help="TCP port (0 binds an ephemeral port)")
    p_srv.add_argument("--system", default="tskd-0",
                       help="servable system (dbcc or a tskd-* instance)")
    p_srv.add_argument("--threads", type=int, default=8)
    p_srv.add_argument("--cc", default="occ",
                       help="CC protocol the engine runs underneath")
    p_srv.add_argument("--engine", choices=ENGINES, default="fast",
                       help="DES event-loop implementation")
    p_srv.add_argument("--seed", type=int, default=0)
    p_srv.add_argument("--epoch-max-txns", type=int, default=256,
                       help="close the epoch at this many transactions")
    p_srv.add_argument("--epoch-max-ms", type=float, default=50.0,
                       help="close the epoch this many wall ms after its "
                            "first admission")
    p_srv.add_argument("--queue-limit", type=int, default=4_096,
                       help="max admitted-but-unanswered transactions "
                            "before submits are rejected (backpressure)")
    p_srv.add_argument("--retry-after-ms", type=float, default=25.0,
                       help="retry hint sent with rejected submits")
    p_srv.add_argument("--assignment", choices=SERVE_ASSIGNMENTS,
                       default="round_robin",
                       help="how CC-executed buffers are dealt to threads")
    p_srv.add_argument("--record-epoch-tids", action="store_true",
                       help="record per-epoch transaction ids in the "
                            "drain artifact (batch replay)")
    p_srv.add_argument("--shards", type=int, default=1,
                       help="engine shards; >1 runs the sharded cluster "
                            "(one worker process per shard, cross-shard "
                            "txns via epoch-aligned deterministic commit)")
    p_srv.add_argument("--export-json", metavar="PATH",
                       help="write a repro.serve/1 artifact on drain")
    p_srv.add_argument("--trace", metavar="PATH",
                       help="stream engine span + epoch events from every "
                            "executed epoch to this JSONL file")
    p_srv.add_argument("--exit-on-drain", action="store_true",
                       help="shut the server down after the first drain "
                            "frame (CI smoke runs)")
    p_srv.add_argument("--adaptive", action="store_true",
                       help="enable the repro.predict conflict predictor: "
                            "sketch-fed steering/retuning per engine and "
                            "hot-first admission shedding under "
                            "backpressure")
    p_srv.set_defaults(func=cmd_serve)

    p_lg = sub.add_parser(
        "loadgen", help="drive a running server with a seeded client fleet")
    p_lg.add_argument("--host", default="127.0.0.1")
    p_lg.add_argument("--port", type=int, default=7407)
    p_lg.add_argument("--txns", type=int, default=1_000,
                      help="transactions to submit")
    p_lg.add_argument("--clients", type=int, default=8,
                      help="concurrent client connections")
    p_lg.add_argument("--mode", choices=("closed", "open"), default="closed",
                      help="closed-loop (one in flight per client) or "
                           "open-loop Poisson")
    p_lg.add_argument("--offered-tps", type=float, default=None,
                      help="open-loop submission rate in txn/s")
    p_lg.add_argument("--drain", action="store_true",
                      help="send a drain frame once every txn committed")
    p_lg.add_argument("--workload", choices=("ycsb", "tpcc"), default="ycsb")
    p_lg.add_argument("--seed", type=int, default=0)
    p_lg.add_argument("--theta", type=float, default=0.8,
                      help="YCSB Zipfian skew")
    p_lg.add_argument("--records", type=int, default=2_000_000,
                      help="YCSB table size")
    p_lg.add_argument("--warehouses", type=int, default=40)
    p_lg.add_argument("--cross-pct", type=float, default=0.25)
    p_lg.add_argument("--no-skew", action="store_true",
                      help="disable the runtime-skew extension")
    p_lg.add_argument("--io", type=int, default=0, metavar="L_IO",
                      help="enable the I/O-latency extension at this l_IO")
    p_lg.add_argument("--trace", metavar="PATH",
                      help="write one JSON line per transaction record "
                           "(client-side latency/attempts/rejects)")
    p_lg.add_argument("--flash-every", type=float, default=None,
                      metavar="SEC",
                      help="open-loop flash crowds: burst the offered "
                           "rate on this period (seeded, deterministic)")
    p_lg.add_argument("--flash-burst", type=float, default=1.0,
                      metavar="SEC", help="flash-crowd burst length")
    p_lg.add_argument("--flash-mult", type=float, default=4.0,
                      help="offered-rate multiplier inside a burst")
    p_lg.set_defaults(func=cmd_loadgen)

    p_tune = sub.add_parser("tune", help="tune TsDEFER for a workload")
    _add_workload_args(p_tune)
    p_tune.add_argument("--instance", default="CC",
                        help="TSKD instance to tune (CC/S/C/H/0)")
    p_tune.set_defaults(func=cmd_tune)

    p_trace = sub.add_parser("trace", help="replay a saved JSONL span log")
    p_trace.add_argument("path", help="trace file written by run --trace")
    p_trace.add_argument("--limit", type=int, default=60,
                         help="max timeline lines to print")
    p_trace.add_argument("--thread", type=int, default=None,
                         help="only events from this thread")
    p_trace.add_argument("--tid", type=int, default=None,
                         help="only events for this transaction id")
    p_trace.add_argument("--chrome", metavar="OUT",
                         help="convert to Chrome trace-event JSON "
                              "(chrome://tracing / Perfetto) instead of "
                              "printing a timeline")
    p_trace.add_argument("--include-ops", action="store_true",
                         help="include per-op/validate instants in the "
                              "Chrome trace (verbose)")
    p_trace.set_defaults(func=cmd_trace)

    p_rep = sub.add_parser(
        "report", help="render a saved run/serve/bench artifact")
    p_rep.add_argument("path", help="artifact written by run --export-json, "
                                    "serve --export-json, or perf")
    p_rep.set_defaults(func=cmd_report)

    p_watch = sub.add_parser(
        "watch", help="live terminal dashboard for a running server")
    p_watch.add_argument("--host", default="127.0.0.1")
    p_watch.add_argument("--port", type=int, default=7407)
    p_watch.add_argument("--interval", type=float, default=1.0,
                         help="seconds between stats polls")
    p_watch.add_argument("--iterations", type=int, default=None,
                         help="stop after this many frames (default: "
                              "until interrupted or server exit)")
    p_watch.set_defaults(func=cmd_watch)

    p_perf = sub.add_parser(
        "perf", help="time the pinned perf cases, write BENCH_<rev>.json")
    p_perf.add_argument("--quick", action="store_true",
                        help="CI-smoke sizing (seconds, not minutes)")
    p_perf.add_argument("--out", default="benchmarks/results",
                        help="directory the BENCH_<rev>.json lands in")
    p_perf.add_argument("--rev", default=None,
                        help="revision label (default: git short rev)")
    p_perf.add_argument("--compare", default=None, metavar="BASE.json",
                        help="gate against a committed baseline: exit "
                             "non-zero on >20%% wall/txn regression in "
                             "any sim case")
    p_perf.set_defaults(func=cmd_perf)

    args = parser.parse_args(argv)
    if args.command == "experiment":
        return experiments_main(args.rest)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
