"""The repository's benchmark: one workload per call, one JSON line out.

    python3 perfbench/run.py --workload tpcc_batch --seed 1 --seconds 35 --trace 0

Workloads (see README.md for why each was chosen):

* ``tpcc_batch``: TPC-C, 40 warehouses, 4 000-txn bundles, ``tskd-s``, through
  the static ``run_system`` path;
* ``ycsb_drift``: YCSB with a drifting hotspot, 6 000 txns, ``tskd-0``
  with the adaptive predictor, through the epoched path;
* ``serve_open``: a ``repro serve --system tskd-cc`` child driven over
  ``repro.wire/1`` by an open-loop then closed-loop generator.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
measured by wrapping each layer's entry point (``tracer.py``).  The last
line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.  A
failed output check, a leftover child process or a missing source tree
exits non-zero without that line.

Every process of a run has ``PYTHONHASHSEED=0``, the repository's own
contract (``repro.bench.parallel.pinned_hashseed``): this script re-execs
itself with it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import procs
import serve_open
import speed
from serve_open import BenchError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
HASH_SEED = "0"
#: The benchmark gives up on a run after this many seconds.
DEADLINE_S = 170
WORKLOADS = ("tpcc_batch", "ycsb_drift", "serve_open")
#: Inputs per batch run; its passes cycle through them.  One TPC-C
#: bundle's simulated metrics swing with its input, so TPC-C takes more.
INPUTS = {"tpcc_batch": 5, "ycsb_drift": 2}


class Interrupted(BaseException):
    """SIGTERM or the run's deadline arrived; unwind through ``finally``."""


def _on_signal(signum, _frame):
    raise Interrupted(f"stopped by signal {signum}")


def pinned_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- batch workloads -------------------------------------------------------
def _pass(env: dict, workload: str, seed: int, traced: bool,
          txns: int | None) -> dict:
    argv = [str(HERE / "batch_pass.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "1" if traced else "0"]
    if txns:
        argv += ["--txns", str(txns)]
    # The speed probes run here, not in the pass, whose peak memory they
    # would raise.
    probe_before = speed.probe()
    spawned = time.monotonic()
    proc = procs.spawn(argv, env, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=DEADLINE_S)
    finally:
        procs.stop(proc)
    if proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-5:]
        raise BenchError(f"{workload} pass failed: " + " | ".join(tail))
    doc = json.loads(out.decode().strip().splitlines()[-1])
    doc["setup_s"] = doc["window_at"] - spawned
    doc["probes"] = [probe_before, speed.probe()]
    doc["traced"] = traced
    doc["seed"] = seed
    return doc


def source_digest() -> str:
    """SHA-256 over the program's source files, paths included."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def _check_fingerprint(key: str, fingerprint: list) -> bool:
    """Same code and seed, same fingerprint: compare with earlier runs here.

    ``key`` holds a digest of the source, so a changed program starts
    fresh entries instead of failing against an older program's results.
    """
    path = OUT / "fingerprints.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key in known:
        return known[key] == fingerprint
    known[key] = fingerprint
    tmp = path.with_name(f"fingerprints-{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    os.replace(tmp, path)
    return True


def run_batch(env: dict, workload: str, seed: int, seconds: float,
              trace: bool, txns: int | None) -> dict:
    """Fresh-process passes over several inputs for about ``seconds``.

    The seed makes ``INPUTS[workload]`` inputs, and passes cycle through
    them, so the simulated metrics cover several bundles: one TPC-C
    bundle's makespan swings with its input by about a fifth from seed to
    seed.  Every input runs at least twice, so its fingerprint is compared
    within the run; after that, a pass starts only if it would likely end
    less than half a pass past ``seconds``, so runs last ``seconds`` on
    average.  A traced run alternates rounds of untraced and traced
    passes; the tracing overhead is the difference of their median wall
    times.
    """
    k = INPUTS[workload]
    inputs = tuple(k * seed + j for j in range(k))
    code = source_digest()
    passes = []
    took = []
    start = time.monotonic()
    while (len(passes) < 2 * k
           or time.monotonic() - start + statistics.median(took) / 2 <= seconds):
        i = len(passes)
        traced = trace and (i // k) % 2 == 1
        began = time.monotonic()
        passes.append(_pass(env, workload, inputs[i % k], traced, txns))
        took.append(time.monotonic() - began)

    problems = []
    if not all(p["exactly_once"] and p["committed"] == p["txns"] for p in passes):
        problems.append("a transaction did not commit exactly once")
    firsts = []
    for s in inputs:
        mine = [p for p in passes if p["seed"] == s]
        firsts.append(mine[0])
        if any(p["fingerprint"] != mine[0]["fingerprint"] for p in mine):
            problems.append(f"input {s}: fingerprint differs between passes")
        key = f"{code}/{workload}/input={s}/txns={mine[0]['txns']}"
        if not _check_fingerprint(key, mine[0]["fingerprint"]):
            problems.append(f"input {s}: fingerprint differs from an earlier run")
    if problems:
        raise BenchError("; ".join(problems))

    plain = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in plain]
    committed = sum(p["committed"] for p in firsts)
    # Wall-clock figures at reference machine speed (speed.py): a rate
    # over the run's speed factor, a time times it.  One factor per run,
    # from the median of all its probes: one short probe is as jittery
    # as one pass, but the host's slow shifts move all of them.
    factor = speed.factor(statistics.median(
        t for p in passes for t in p["probes"]))
    raw = {
        "wall_txn_s": statistics.median(p["committed"] / p["wall_s"] for p in plain),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "p50_ms": statistics.median(p["commit_p50_ms"] for p in plain),
        "p90_ms": statistics.median(p["commit_p90_ms"] for p in plain),
    }
    metrics = {
        "wall_txn_s": raw["wall_txn_s"] / factor,
        "setup_s": raw["setup_s"] * factor,
        # Peak memory is set by the input, so weigh each input once.
        "peak_rss_mb": statistics.fmean(p["rss_mb"] for p in firsts),
        "sim_tput_txn_s": committed / sum(p["makespan_s"] for p in firsts),
        "retries_per_commit": sum(p["retries"] for p in firsts) / committed,
        "sim_p99_cycles": statistics.fmean(p["sim_p99_cycles"] for p in firsts),
        # A batch client submits the bundle and waits for its transactions.
        "p50_ms": raw["p50_ms"] * factor,
        "p90_ms": raw["p90_ms"] * factor,
    }
    layers = {
        "raw.wall_txn_s": raw["wall_txn_s"],
        "raw.setup_s": raw["setup_s"],
        "machine.speed": factor,
    }
    traced = [p for p in passes if p["traced"]]
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(walls))
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_pct"] = 100.0 * overhead / statistics.median(walls)
    print(f"{workload}: {len(passes)} passes ({len(traced)} traced), "
          f"{firsts[0]['txns']} txns each, unscaled "
          f"{layers['raw.wall_txn_s']:.1f} txn/s at machine speed "
          f"{layers['machine.speed']:.3f}, fingerprints "
          + " ".join(f"input {p['seed']}: {p['fingerprint']}" for p in firsts))
    return {
        "attempted": sum(p["txns"] for p in passes),
        "failed": sum(p["txns"] - p["committed"] for p in passes),
        "metrics": metrics,
        "layers": layers,
    }


# -- output ----------------------------------------------------------------
def result_line(res: dict, trace: bool) -> dict:
    """The final JSON object, metrics named and united per BENCHMARK.json."""
    doc = spec()
    table = doc["per_layer"] if trace else doc["end_to_end"]
    source = res["layers"] if trace else res["metrics"]
    metrics = {}
    for m in table:
        if trace:
            # A layer the workload never reaches reads zero.
            value = source.get(m["name"], 0.0)
        else:
            value = source[m["name"]]
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return {"correct": True, "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--txns", type=int, default=None,
                    help="shrink a batch bundle (the benchmark's own tests)")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGALRM, _on_signal)
    signal.alarm(DEADLINE_S)
    env = pinned_env()
    OUT.mkdir(exist_ok=True)
    try:
        if args.workload == "serve_open":
            res = serve_open.run(ROOT, OUT, env, args.seed, args.seconds,
                                 bool(args.trace))
            for step, st in res["steps"].items():
                print(f"serve_open {step}: sent {st['sent']}, committed "
                      f"{st['committed']}, rejected {st['rejected']}, failed "
                      f"{st['failed']}, p50 {st['p50_ms']:.1f} ms, p99 "
                      f"{st['p99_ms']:.1f} ms, lag p99 {st['lag_p99_ms']:.2f} ms")
        else:
            res = run_batch(env, args.workload, args.seed, args.seconds,
                            bool(args.trace), args.txns)
        line = result_line(res, bool(args.trace))
    except (BenchError, Interrupted, KeyboardInterrupt) as e:
        print(f"perfbench: {args.workload}: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        left = procs.live_children()
        if left:
            procs.kill_all()
    if left:
        print(f"perfbench: child processes still alive: {', '.join(left)}",
              file=sys.stderr)
        return 1
    print(f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}")
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], pinned_env())
    code = main()
    sys.stdout.flush()
    # Every child is reaped by now; skip freeing the replay's objects.
    os._exit(code)
