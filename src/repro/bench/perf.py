"""Perf trajectory: timed pinned sweeps, written as ``BENCH_<rev>.json``.

The tier-1 suite answers "is it still correct?"; this module answers
"is it still fast?".  ``run_perf`` times a pinned set of representative
cases — two fig5 YCSB cells (DBCC and TSKD[CC] at theta 0.8), two fig4
TPC-C cells (Strife and TSKD[S] under an I/O tail), one adaptive TSKD[0]
cell on a drifting hotspot (epoched path, predictor on), and one end-to-end
serve session saturated by the closed-loop load generator — and writes one
schema-validated ``repro.bench/1`` document per revision into
``benchmarks/results/``.  Committing a BENCH file per meaningful change
grows a wall-clock trajectory of the repo (the ROADMAP's speed-roadmap
item): regressions show up as a diff, not an anecdote.

Wall times are machine-dependent by nature; the artifact therefore
records the machine (platform, Python, CPU count) next to every number,
and CI's perf-smoke job only *validates* the schema and sanity of a
quick run — it never compares absolute times across machines.  See
docs/perf.md for the schema and workflow.

Each sim case also embeds its profiler top sections (self-time table
from :mod:`repro.obs.prof`), so a BENCH diff shows not just *that* a
revision got slower but *where*.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import replace
from typing import Optional

from ..common.config import (
    ExperimentConfig,
    IoLatencyConfig,
    PredictConfig,
    ServeConfig,
)
from ..obs.artifact import BENCH_SCHEMA_ID, validate_bench_artifact
from ..obs.prof import Profiler
from .experiments import (
    BENCH,
    QUICK,
    Scale,
    default_exp,
    drift_ycsb_workload,
    tpcc_workload,
    ycsb_workload,
)
from .runner import make_system, run_system

#: How many profiler sections each case keeps (sorted by wall self-time).
PROFILE_TOP_K = 8

#: Serve-case sizing: (transactions, clients) per scale name.  Twice as
#: many closed-loop clients as an epoch holds keep epochs closing full
#: while the previous one executes, so the case times the service rate,
#: not the batcher's deadline timer.
_SERVE_EPOCH_TXNS = 64
_SERVE_SIZE = {"quick": (1_000, 2 * _SERVE_EPOCH_TXNS),
               "bench": (4_000, 2 * _SERVE_EPOCH_TXNS)}


def machine_info() -> dict:
    """Where these wall-clock numbers were measured."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count() or 1,
    }


def git_rev(default: str = "dev") -> str:
    """Short git revision of the working tree, or ``default``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip() or default
    except (OSError, subprocess.SubprocessError):
        return default


def _profile_top(prof: Profiler, k: int = PROFILE_TOP_K) -> list[dict]:
    doc = prof.to_dict()
    ordered = sorted(doc["sections"].items(),
                     key=lambda kv: kv[1]["wall_ns"], reverse=True)
    return [
        {"section": name, "calls": sec["calls"], "wall_ns": sec["wall_ns"],
         "vcycles": sec["vcycles"]}
        for name, sec in ordered[:k]
    ]


def _sim_case(name: str, workload, system_spec: str,
              exp: ExperimentConfig, repeat: int) -> dict:
    """Time ``repeat`` runs of one (workload, system) cell.

    The timed repeats run *unprofiled* (the profiler's section
    bookkeeping is measurable overhead on the fast engine), with a GC
    pass before each so collection debt from the previous run does not
    land inside the next timing window; ``wall_s`` is the best of N.
    One extra profiled run supplies the ``profile_top`` table — it
    contributes attribution, never timing.
    """
    walls = []
    result = None
    for _ in range(repeat):
        gc.collect()
        t0 = time.perf_counter()
        result = run_system(workload, make_system(system_spec), exp)
        walls.append(time.perf_counter() - t0)
    prof = Profiler()
    prof.start()
    run_system(workload, make_system(system_spec), exp, prof=prof)
    prof.stop()
    wall = min(walls)  # best-of-N: least scheduler noise
    return {
        "name": name,
        "kind": "sim",
        "system": system_spec,
        "txns": len(workload),
        "wall_s": round(wall, 4),
        "wall_all_s": [round(w, 4) for w in walls],
        "committed": result.committed,
        "wall_txn_s": round(result.committed / wall, 1) if wall else 0.0,
        "sim_throughput_txn_s": round(result.throughput, 1),
        "retries": result.retries,
        "profile_top": _profile_top(prof),
    }


async def _serve_case_async(name: str, scale: Scale,
                            exp: ExperimentConfig) -> dict:
    from ..serve.loadgen import run_loadgen
    from ..serve.server import ServeServer

    n_txns, clients = _SERVE_SIZE.get(scale.name, _SERVE_SIZE["bench"])
    txns = list(ycsb_workload(replace(scale, bundle=n_txns), exp, 0.8, seed=0))
    serve = ServeConfig(system="tskd-cc", host="127.0.0.1", port=0,
                        epoch_max_txns=_SERVE_EPOCH_TXNS, epoch_max_ms=20.0)
    server = ServeServer(serve, exp)
    await server.start()
    try:
        t0 = time.perf_counter()
        report = await run_loadgen(
            "127.0.0.1", server.port, txns, clients=clients,
            mode="closed", seed=0, drain=True,
        )
        wall = time.perf_counter() - t0
    finally:
        await server.stop()
        await asyncio.sleep(0)  # let connection tasks unwind
    lat = report.latency_ms
    return {
        "name": name,
        "kind": "serve",
        "system": serve.system,
        "txns": len(txns),
        "clients": clients,
        "wall_s": round(wall, 4),
        "committed": report.committed,
        "wall_txn_s": round(report.committed / wall, 1) if wall else 0.0,
        "rejects": report.rejects,
        "p50_ms": lat["p50"],
        "p99_ms": lat["p99"],
    }


def run_perf(
    quick: bool = False,
    out_dir: str = "benchmarks/results",
    rev: Optional[str] = None,
    repeat: Optional[int] = None,
) -> tuple[str, dict]:
    """Run the pinned perf cases; write and return ``BENCH_<rev>.json``.

    ``quick`` shrinks every case to CI-smoke size (whole run well under
    a minute); the standard size is what committed baselines use.
    ``repeat`` defaults to 3 timed runs per sim case when quick and 6
    at standard scale: committed baselines are worth the extra passes,
    because this class of box shows bimodal scheduler noise that
    best-of-3 does not reliably punch through.
    """
    from .. import __version__

    scale = QUICK if quick else BENCH
    if repeat is None:
        repeat = 3 if quick else 6
    rev = rev or git_rev()
    cases = []

    exp5 = default_exp(scale).with_(seed=0)
    w_ycsb = ycsb_workload(scale, exp5, 0.8, seed=0)
    cases.append(_sim_case("fig5.ycsb.t08.dbcc", w_ycsb, "dbcc", exp5, repeat))
    cases.append(_sim_case("fig5.ycsb.t08.tskd-cc", w_ycsb, "tskd-cc",
                           exp5, repeat))

    exp4 = default_exp(scale).with_(
        seed=0, io=IoLatencyConfig(l_io=50, theta_io=1.2))
    w_tpcc = tpcc_workload(scale, exp4, seed=0)
    cases.append(_sim_case("fig4.tpcc.io.strife", w_tpcc, "strife",
                           exp4, repeat))
    cases.append(_sim_case("fig4.tpcc.io.tskd-s", w_tpcc, "tskd-s",
                           exp4, repeat))

    # The abl_adaptive adaptive arm on its drifting hotspot.
    exp_a = exp5.with_(predict=PredictConfig(
        admission=False, epoch_txns=50, hot_threshold=2.0,
        hot_defer_prob=0.9))
    w_drift = drift_ycsb_workload(scale, exp_a, 0.9, seed=0,
                                  records=scale.bundle * 50)
    cases.append(_sim_case("drift.ycsb.t09.tskd-0.adaptive", w_drift,
                           "tskd-0", exp_a, repeat))

    cases.append(asyncio.run(
        _serve_case_async("serve.loadgen.closed", scale, exp5)))

    doc = {
        "schema": BENCH_SCHEMA_ID,
        "generated_by": f"repro {__version__}",
        "rev": rev,
        "quick": quick,
        "scale": scale.name,
        "machine": machine_info(),
        "cases": cases,
    }
    validate_bench_artifact(doc)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{rev}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return path, doc


def compare_bench(new_doc: dict, base_doc: dict,
                  tolerance: float = 0.20) -> tuple[bool, str]:
    """Diff a fresh bench document against a committed baseline.

    Cases are matched by name; only ``kind == "sim"`` cases gate (the
    serve case times the asyncio loadgen end to end and is far too
    noisy to fail a build on — it is reported informationally).  The
    compared quantity is wall time *per committed transaction*, so a
    quick-scale CI run can gate against a standard-scale committed
    baseline.  Returns ``(ok, report)`` where ``ok`` is False when any
    sim case regressed by more than ``tolerance``.
    """
    base_by_name = {c["name"]: c for c in base_doc["cases"]}
    lines = [f"== perf compare: {new_doc['rev']} vs {base_doc['rev']} "
             f"(gate: sim cases, +{tolerance:.0%} wall/txn)"]
    lines.append(f"{'case':<30s} {'base us/txn':>12s} {'new us/txn':>11s} "
                 f"{'delta':>8s}  verdict")
    ok = True
    for case in new_doc["cases"]:
        base = base_by_name.get(case["name"])
        if base is None:
            lines.append(f"{case['name']:<30s} {'-':>12s} {'-':>11s} "
                         f"{'-':>8s}  new case (no baseline)")
            continue
        new_pt = case["wall_s"] / max(case["committed"], 1)
        base_pt = base["wall_s"] / max(base["committed"], 1)
        delta = new_pt / base_pt - 1.0 if base_pt else 0.0
        gated = case["kind"] == "sim"
        if gated and delta > tolerance:
            verdict = "REGRESSION"
            ok = False
        elif gated:
            verdict = "ok"
        else:
            verdict = "info only"
        lines.append(f"{case['name']:<30s} {base_pt * 1e6:>12.1f} "
                     f"{new_pt * 1e6:>11.1f} {delta:>+8.1%}  {verdict}")
    missing = sorted(set(base_by_name) - {c["name"] for c in new_doc["cases"]})
    for name in missing:
        lines.append(f"{name:<30s} dropped from the new run")
    return ok, "\n".join(lines)


def load_bench(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    validate_bench_artifact(doc)
    return doc


def render_bench(doc: dict) -> str:
    """One-screen summary of a bench document."""
    m = doc["machine"]
    lines = [
        f"== perf {doc['rev']}  ({'quick' if doc['quick'] else 'standard'} "
        f"scale, {m['platform']}, python {m['python']}, "
        f"{m['cpu_count']} cpus)"
    ]
    lines.append(f"{'case':<30s} {'kind':>6s} {'wall s':>8s} "
                 f"{'committed':>10s} {'txn/s(wall)':>12s}")
    for c in doc["cases"]:
        lines.append(
            f"{c['name']:<30s} {c['kind']:>6s} {c['wall_s']:>8.3f} "
            f"{c['committed']:>10,} {c['wall_txn_s']:>12,.0f}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    quick = "--quick" in args
    if quick:
        args.remove("--quick")
    out_dir = "benchmarks/results"
    rev = None
    compare = None
    i = 0
    while i < len(args):
        if args[i] == "--out" and i + 1 < len(args):
            out_dir = args[i + 1]
            del args[i:i + 2]
        elif args[i] == "--rev" and i + 1 < len(args):
            rev = args[i + 1]
            del args[i:i + 2]
        elif args[i] == "--compare" and i + 1 < len(args):
            compare = args[i + 1]
            del args[i:i + 2]
        else:
            i += 1
    path, doc = run_perf(quick=quick, out_dir=out_dir, rev=rev)
    print(render_bench(doc))
    print(f"wrote {path}")
    if compare is not None:
        ok, report = compare_bench(doc, load_bench(compare))
        print(report)
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
