"""The benchmark's own tests: tiny runs of every workload.

    python3 -m pytest perfbench/tests -q

Each run carries a unique environment tag, which every process it starts
inherits, so a test can find any process a run left behind.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Tiny sizes: (extra args, seconds) per workload.
TINY = {
    "tpcc_batch": (["--txns", "300"], "1"),
    "ycsb_drift": (["--txns", "300"], "1"),
    "serve_open": ([], "1.5"),
}


def tagged_env() -> tuple[dict, str]:
    tag = uuid.uuid4().hex
    return dict(os.environ, PERFBENCH_TEST_TAG=tag), tag


def tagged_processes(tag: str) -> list[int]:
    needle = f"PERFBENCH_TEST_TAG={tag}".encode()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            environ = (entry / "environ").read_bytes()
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in environ.split(b"\0") and state != "Z":
            found.append(int(entry.name))
    return found


def bench(workload: str, seed: int = 1, trace: int = 0, cwd: Path = ROOT,
          timeout: float = 170.0):
    extra, seconds = TINY[workload]
    env, tag = tagged_env()
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", seconds,
         "--trace", str(trace), *extra],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    return proc, tag


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_checks_and_prints_every_metric(workload, trace):
    proc, tag = bench(workload, trace=trace)
    doc = result(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in table}
    for value in (v["value"] for v in doc["metrics"].values()):
        assert math.isfinite(value)
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())
    assert "PYTHONHASHSEED=0" in proc.stdout
    assert tagged_processes(tag) == []


def _value(doc: dict, name: str) -> float:
    return doc["metrics"][name]["value"]


@pytest.mark.parametrize("workload", ["tpcc_batch", "ycsb_drift"])
def test_traced_batch_layers_follow_the_workload(workload):
    doc = result(bench(workload, trace=1)[0])
    assert _value(doc, "engine.busy_s") > 0
    assert _value(doc, "tsgen.busy_s") > 0
    assert _value(doc, "progress_table.probes_per_txn") > 0
    if workload == "tpcc_batch":
        assert _value(doc, "partition.busy_s") > 0
        assert _value(doc, "predict.sketch_updates") == 0
        assert _value(doc, "predict.end_epoch.busy_s") == 0
    else:
        assert _value(doc, "partition.busy_s") == 0
        assert _value(doc, "predict.sketch_updates") > 0
        assert _value(doc, "runner.epochs") > 1
    assert _value(doc, "loadgen.light.sent") == 0


def test_traced_serve_reports_pipeline_stages_and_no_partition():
    doc = result(bench("serve_open", trace=1)[0])
    assert _value(doc, "partition.busy_s") == 0
    assert _value(doc, "predict.sketch_updates") == 0
    for step in ("light", "loaded", "saturate"):
        assert _value(doc, f"loadgen.{step}.sent") > 0
        assert _value(doc, f"serve.{step}.execute_p50_ms") > 0
    assert _value(doc, "batcher.epoch_size_mean") > 0


def _fingerprints(stdout: str) -> list[str]:
    line = next(l for l in stdout.splitlines() if "fingerprints" in l)
    return re.findall(r"\[[^]]*\]", line)


@pytest.mark.parametrize("workload", ["tpcc_batch", "ycsb_drift"])
def test_seed_changes_batch_inputs(workload):
    a = _fingerprints(bench(workload, seed=1)[0].stdout)
    b = _fingerprints(bench(workload, seed=2)[0].stdout)
    assert len(a) == len(b) >= 2
    assert not set(a) & set(b)


def test_seed_changes_serve_inputs():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import serve_open; print(hash(tuple(serve_open.make_pool("
            "int(sys.argv[3]))[1])))")
    env = dict(os.environ, PYTHONHASHSEED="0")
    outs = [subprocess.run([sys.executable, "-c", code, str(BENCH),
                            str(ROOT / "src"), str(seed)], env=env,
                           capture_output=True, text=True, check=True).stdout
            for seed in (1, 2, 1)]
    assert outs[0] != outs[1]
    assert outs[0] == outs[2]


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    started = time.monotonic()
    proc, tag = bench("tpcc_batch", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert time.monotonic() - started < 60
    assert tagged_processes(tag) == []


def _start_serve_run(tag_env: dict, seconds: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve_open",
         "--seed", "1", "--seconds", seconds, "--trace", "0"],
        cwd=ROOT, env=tag_env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def _wait_for_server(tag: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for pid in tagged_processes(tag):
            try:
                cmd = Path(f"/proc/{pid}/cmdline").read_bytes()
            except OSError:
                continue
            if b"--record-epoch-tids" in cmd:
                return
        time.sleep(0.1)
    raise AssertionError("the benchmark never started its measured server")


def _wait_gone(tag: str, timeout: float = 15.0) -> list[int]:
    deadline = time.monotonic() + timeout
    while tagged_processes(tag) and time.monotonic() < deadline:
        time.sleep(0.1)
    return tagged_processes(tag)


@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT, signal.SIGKILL])
def test_killed_run_leaves_no_process(sig):
    env, tag = tagged_env()
    proc = _start_serve_run(env, "30")
    try:
        _wait_for_server(tag)
        time.sleep(1.0)
        proc.send_signal(sig)
        out, _err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert '"metrics"' not in out
    assert _wait_gone(tag) == []


def test_killed_batch_run_leaves_no_process():
    env, tag = tagged_env()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "tpcc_batch",
         "--seed", "1", "--seconds", "30", "--trace", "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        deadline = time.monotonic() + 60
        while len(tagged_processes(tag)) < 2 and time.monotonic() < deadline:
            time.sleep(0.1)
        assert len(tagged_processes(tag)) >= 2, "no pass process started"
        proc.kill()
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert _wait_gone(tag) == []


def test_tracer_self_times_add_up():
    sys.path.insert(0, str(BENCH))
    try:
        from tracer import Tracer
    finally:
        sys.path.remove(str(BENCH))
    tracer = Tracer()
    with tracer.span("pass"):
        with tracer.span("engine"):
            time.sleep(0.01)
        with tracer.span("engine"):
            with tracer.span("progress_table"):
                time.sleep(0.01)
    self_s = tracer.self_times()
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(self_s.values()) == pytest.approx(total)
    assert self_s["progress_table"] >= 0.01
    assert tracer.calls("engine") == 2


def test_fingerprints_compare_only_runs_of_the_same_source(tmp_path, monkeypatch):
    sys.path.insert(0, str(BENCH))
    try:
        import run
    finally:
        sys.path.remove(str(BENCH))
    module = tmp_path / "src" / "repro" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("x = 1\n")
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    monkeypatch.setattr(run, "OUT", tmp_path)

    def check(fingerprint: list) -> bool:
        return run._check_fingerprint(f"{run.source_digest()}/w", fingerprint)

    assert check([1, 2]) and check([1, 2])
    assert not check([1, 3])
    module.write_text("x = 2\n")  # a changed program starts afresh
    assert check([1, 3])
    assert list(tmp_path.glob("*.tmp")) == []
