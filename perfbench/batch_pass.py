"""One pass of a batch workload in a fresh interpreter.

``run.py`` starts this script once per pass, so no pass can reuse what an
earlier one built: not the in-process workload memo, not the workload's
conflict-graph memo and not the per-transaction ``_sorted_write_set`` or
``_flat_ops`` caches.  The pass builds its workload through the factories
in ``repro.bench.experiments``, collects garbage, then times one
``repro.bench.runner.run_system`` call: warm-up, conflict graph, prepare
and execute.  It prints one JSON object on stdout.

    python3 perfbench/batch_pass.py --workload tpcc_batch --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
import time

#: Transactions per bundle, per batch workload.
BUNDLE = {"tpcc_batch": 4_000, "ycsb_drift": 6_000}


def build(workload: str, seed: int, txns: int):
    """The workload object, its experiment config and its system spec."""
    from repro.bench.experiments import (
        Scale,
        default_exp,
        drift_ycsb_workload,
        tpcc_workload,
    )
    from repro.common.config import IoLatencyConfig, PredictConfig

    scale = Scale(name="perfbench", bundle=txns, seeds=(seed,), threads=20,
                  tpcc_warehouses=40)
    # The program's own seed stays fixed: only the inputs follow --seed.
    exp = default_exp(scale).with_(seed=0)
    if workload == "tpcc_batch":
        exp = exp.with_(io=IoLatencyConfig(l_io=50, theta_io=1.2))
        return tpcc_workload(scale, exp, seed=seed, cross_pct=0.25), exp, "tskd-s"
    # The abl_adaptive adaptive arm on its drifting hotspot.
    exp = exp.with_(predict=PredictConfig(admission=False, epoch_txns=50,
                                          hot_threshold=2.0,
                                          hot_defer_prob=0.9))
    w = drift_ycsb_workload(scale, exp, 0.9, seed, records=txns * 50)
    return w, exp, "tskd-0"


def commit_percentile(committed_at: list[float], t0: float, q: float) -> float:
    """Nearest-rank ``q`` quantile of the wall ms from ``t0`` to each commit.

    The whole bundle is submitted at ``t0``, so this is how long a
    transaction of the bundle waits until it has committed.
    """
    ordered = sorted(committed_at)
    rank = max(1, math.ceil(len(ordered) * q))
    return 1e3 * (ordered[rank - 1] - t0)


def _pct(num: float, den: float) -> float:
    return 100.0 * num / den if den else 0.0


def probe_metrics(count, committed: int) -> dict:
    """TsDEFER and progress-table ratios from a ``count(name)`` lookup."""
    return {
        "progress_table.probes_per_txn":
            count("progress_table.probes") / max(committed, 1),
        "progress_table.stale_pct": _pct(count("progress_table.stale_observations"),
                                         count("progress_table.probes")),
        "tsdefer.probe_hit_pct": _pct(count("tsdefer.probe_hits"),
                                      count("tsdefer.lookups")),
        "tsdefer.defer_pct": _pct(count("tsdefer.deferrals"),
                                  count("tsdefer.checks")),
    }


def layer_metrics(tracer, result, build_s: float) -> dict:
    """Per-layer metrics of one traced pass (see README.md)."""
    reg = result.metrics

    def count(name: str) -> float:
        return reg.value(name) or 0

    self_s = tracer.self_times()
    graph = tracer.seen.get("graph")
    residual, examined = tracer.seen.get("partition", (0, 0))
    engine_s = sum(end - start for name, start, end, _p in tracer.spans
                   if name == "engine")
    busy_cycles = sum(result.thread_busy_cycles)
    return {
        "workloads.build_s": build_s,
        "warmup.busy_s": self_s.get("warmup", 0.0),
        "conflict_graph.busy_s": self_s.get("conflict_graph", 0.0),
        "conflict_graph.edges": sum(1 for _ in graph.edges()) if graph else 0,
        "partition.busy_s": self_s.get("partition", 0.0),
        "partition.residual_pct": _pct(residual, examined),
        "tsgen.busy_s": self_s.get("tsgen", 0.0),
        "tsgen.scheduled_pct": _pct(count("tsgen.scheduled"),
                                    count("tsgen.examined")),
        "tsgen.rc_reject_pct": _pct(count("tsgen.rc_rejections"),
                                    count("tsgen.rc_checks")),
        "engine.busy_s": self_s.get("engine", 0.0),
        "engine.us_per_txn": 1e6 * engine_s / max(result.committed, 1),
        "cc.validation_failures": count("cc.validation_failures"),
        "cc.wasted_cycles_pct": _pct(result.wasted_cycles, busy_cycles),
        "progress_table.busy_s": self_s.get("progress_table", 0.0),
        **probe_metrics(count, result.committed),
        "predict.end_epoch.busy_s": self_s.get("predict.end_epoch", 0.0),
        "predict.sketch_updates": count("predict.sketch_updates"),
        "predict.defer_boosts": count("predict.defer_boosts"),
        "predict.retunes": count("predict.retunes"),
        "predict.drift_events": count("predict.drift_events"),
        "runner.epochs": tracer.calls("tsgen"),
        "trace.other_s": self_s.get("pass", 0.0),
    }


def run_pass(workload: str, seed: int, trace: bool, txns: int) -> dict:
    t_build = time.perf_counter()
    w, exp, spec = build(workload, seed, txns)
    build_s = time.perf_counter() - t_build

    from repro.bench.runner import make_system, run_system
    from repro.core.tsdefer import TsDefer

    # Exactly-once check: TsDEFER's on_commit hook fires once per commit
    # (one call per transaction, a few milliseconds per pass).  The wall
    # time of each first commit gives the bundle's commit latencies.
    commits: dict[int, int] = {}
    committed_at: list[float] = []
    on_commit = TsDefer.on_commit

    def counting_on_commit(self, thread_id, txn, now):
        if txn.tid not in commits:
            committed_at.append(time.perf_counter())
        commits[txn.tid] = commits.get(txn.tid, 0) + 1
        on_commit(self, thread_id, txn, now)

    TsDefer.on_commit = counting_on_commit

    tracer = None
    if trace:
        from tracer import Tracer, install_layer_spans

        tracer = Tracer()
        install_layer_spans(tracer)
    system = make_system(spec)
    gc.collect()
    window_at = time.monotonic()
    t0 = time.perf_counter()
    if tracer is None:
        result = run_system(w, system, exp)
    else:
        with tracer.span("pass"):
            result = run_system(w, system, exp)
    wall_s = time.perf_counter() - t0

    tids = {t.tid for t in w}
    exactly_once = (set(commits) == tids
                    and all(c == 1 for c in commits.values()))
    doc = {
        "window_at": window_at,
        "build_s": build_s,
        "wall_s": wall_s,
        "txns": len(w),
        "committed": result.committed,
        "exactly_once": exactly_once,
        "fingerprint": [result.committed, result.makespan_cycles,
                        result.retries, result.deferrals, result.latency_p99],
        "commit_p50_ms": commit_percentile(committed_at, t0, 0.50),
        "commit_p90_ms": commit_percentile(committed_at, t0, 0.90),
        "makespan_s": result.committed / result.throughput,
        "retries": result.retries,
        "sim_p99_cycles": result.latency_p99,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.unwrap_all()
        doc["layers"] = layer_metrics(tracer, result, build_s)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(BUNDLE), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--txns", type=int, default=None)
    args = ap.parse_args(argv)
    doc = run_pass(args.workload, args.seed, bool(args.trace),
                   args.txns or BUNDLE[args.workload])
    json.dump(doc, sys.stdout)
    sys.stdout.write("\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    code = main()
    # Skip interpreter teardown: freeing the pass's few hundred MiB of
    # objects one by one takes seconds and measures nothing.
    os._exit(code)
