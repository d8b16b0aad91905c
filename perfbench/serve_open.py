"""The ``serve_open`` workload: a ``repro serve`` child driven over sockets.

One server process (``repro serve --system tskd-cc``, default epochs of
256 txns / 50 ms) and one generator, this process, with at most ``nproc``
connections (two).  The generator speaks ``repro.wire/1`` itself through
``repro.serve.protocol``; it does not use ``run_loadgen``, which times a
request from its actual send and so hides the generator's own stalls.

Steps, after a discarded warm-up:

* ``light``: open-loop Poisson arrivals at 400 txn/s;
* ``loaded``: open-loop Poisson arrivals at 1 000 txn/s;
* ``saturate``: a closed loop keeping ``epoch_max_txns`` (256) requests
  outstanding, so epochs close by size and the step measures the service
  rate, not the deadline timer.

The three steps run in ``ROUNDS`` rounds.  ``wall_txn_s`` is the median
service rate over every ``saturate`` epoch of every round (an epoch's
committed txns over the time since the previous epoch's last response),
and ``p50_ms``/``p90_ms`` are the medians of the rounds' ``light``
percentiles, so one stall (a collection pause in the server, a busy
neighbour on the machine) moves a few epochs or one round, not the
result.  The ``loaded`` step's latencies amplify the machine's speed
drift through queueing; they are per-layer metrics.

An open-loop request is timed from the instant its schedule says it is
due, so a late generator shows up as latency and as ``loadgen.lag``.
Nothing is retried: a reject counts as a failure.

Checks: every id sent gets exactly one response, and the drain
artifact's ``state_digest`` equals the digest of a batch replay
(``replay_epochs``) of the epoch compositions the server recorded with
``--record-epoch-tids``.  The simulated metrics (throughput, retries,
p99 cycles) come from that replay.  Which txns share an epoch depends on
when requests arrived and when the deadline timer fired, so unlike a
batch run's these metrics are not identical from run to run of a seed.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import procs

LIGHT_TPS = 400.0
LOADED_TPS = 1_000.0
EPOCH_MAX_TXNS = 256
THREADS = 8
#: Distinct transactions generated per run; requests cycle through them.
POOL = 6_000
#: Server starts per run; ``setup_s`` is their median.
SETUPS = 5
STEPS = ("light", "loaded", "saturate")
#: Each round runs every step once; a metric is its median over rounds,
#: so a transient slowdown of the machine moves one round, not the result.
ROUNDS = 5
#: Share of a round's time per step.  At 30 s a round's ``light`` step
#: gets about 1 500 requests, enough for ten beyond its p99.
SHARE = {"light": 0.62, "loaded": 0.12, "saturate": 0.26}
#: A saturate step spans at least a few epochs, even in a tiny run.
MIN_SATURATE_S = 0.6
SERVER_ARGS = ["-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0",
               "--system", "tskd-cc", "--threads", str(THREADS), "--cc", "occ",
               "--engine", "fast", "--seed", "0",
               "--epoch-max-txns", str(EPOCH_MAX_TXNS)]


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


@dataclass
class Request:
    req_id: int
    step: str
    round: int
    due: float
    sent: float = 0.0
    received: Optional[float] = None
    status: Optional[str] = None
    tid: Optional[int] = None
    epoch: Optional[int] = None
    breakdown: Optional[dict] = None
    responses: int = 0


@dataclass
class Generator:
    """Two connections, every request sent and every frame received."""

    frames: list[bytes]
    docs: list[dict]
    conns: list = field(default_factory=list)
    requests: list[Request] = field(default_factory=list)
    errors: int = 0
    drained: Optional[asyncio.Future] = None
    #: Closed-loop refill: called with each response of the step.
    on_response: Optional[Callable[["Request"], None]] = None
    #: Requests sent and not yet answered, per step.
    pending: dict[tuple[str, int], int] = field(default_factory=dict)
    _readers: list = field(default_factory=list)

    async def connect(self, port: int, n: int) -> None:
        for _ in range(n):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            self.conns.append(writer)
            self._readers.append(asyncio.create_task(self._read(reader)))

    def send(self, step: str, rnd: int, due: float) -> Request:
        req = Request(len(self.requests), step, rnd, due)
        self.requests.append(req)
        key = (step, rnd)
        self.pending[key] = self.pending.get(key, 0) + 1
        writer = self.conns[req.req_id % len(self.conns)]
        req.sent = time.monotonic()
        # Frames are encoded once with id 0; the id is the first key
        # (encode_frame sorts keys), so patching it is one replace.
        writer.write(self.frames[req.req_id % len(self.frames)].replace(
            b'"id":0,', b'"id":%d,' % req.req_id, 1))
        return req

    async def flush(self) -> None:
        for writer in self.conns:
            if writer.transport.get_write_buffer_size() > 1 << 20:
                await writer.drain()

    async def _read(self, reader) -> None:
        from repro.serve.protocol import SERVER_FRAMES, WireError, decode_frame

        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.monotonic()
            try:
                frame = decode_frame(line, SERVER_FRAMES)
            except WireError:
                self.errors += 1
                continue
            kind = frame["type"]
            if kind == "drained":
                if self.drained is not None and not self.drained.done():
                    self.drained.set_result(frame.get("summary") or {})
                continue
            if kind != "response":
                self.errors += 1
                continue
            req_id = frame.get("id")
            if not isinstance(req_id, int) or not 0 <= req_id < len(self.requests):
                self.errors += 1
                continue
            req = self.requests[req_id]
            req.responses += 1
            if req.responses > 1:
                continue
            req.received = now
            self.pending[req.step, req.round] -= 1
            req.status = frame["status"]
            req.tid = frame.get("tid")
            req.epoch = frame.get("epoch")
            req.breakdown = frame.get("latency_ms")
            if self.on_response is not None:
                self.on_response(req)

    async def settle(self, step: str, rnd: int, timeout: float) -> None:
        """Wait until every request of the step is answered."""
        deadline = time.monotonic() + timeout
        while self.pending.get((step, rnd)):
            if time.monotonic() >= deadline:
                raise BenchError(f"{self.pending[step, rnd]} requests of "
                                 f"step {step} unanswered after {timeout} s")
            await asyncio.sleep(0.01)

    async def drain(self, timeout: float) -> dict:
        from repro.serve.protocol import encode_frame

        self.drained = asyncio.get_running_loop().create_future()
        self.conns[0].write(encode_frame({"type": "drain"}))
        await self.conns[0].drain()
        try:
            return await asyncio.wait_for(self.drained, timeout)
        except asyncio.TimeoutError:
            raise BenchError(f"no drained frame within {timeout} s") from None

    async def close(self) -> None:
        for writer in self.conns:
            writer.close()
        for writer in self.conns:
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


async def open_step(gen: Generator, step: str, rnd: int, tps: float,
                    seconds: float, seed: int) -> None:
    """Send Poisson arrivals at ``tps`` for ``seconds``; wait for answers."""
    from repro.serve.loadgen import poisson_schedule

    n = max(1, math.ceil(tps * seconds * 1.5) + 50)
    offsets = [t for t in poisson_schedule(n, tps, seed) if t < seconds]
    start = time.monotonic()
    for offset in offsets:
        due = start + offset
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        gen.send(step, rnd, due)
        await gen.flush()
    await gen.settle(step, rnd, timeout=30.0)


async def closed_step(gen: Generator, rnd: int, seconds: float) -> list[float]:
    """Keep EPOCH_MAX_TXNS requests outstanding for ``seconds``.

    Returns the service rate of each epoch that closed inside the step:
    its committed txns over the time from the previous epoch's last
    response to its own.  The step's first epoch has no predecessor, and
    epochs still open at the deadline close on the timer, not by size;
    neither counts.
    """
    deadline = time.monotonic() + seconds

    def refill(req: Request) -> None:
        if req.step == "saturate" and time.monotonic() < deadline:
            gen.send("saturate", rnd, time.monotonic())

    gen.on_response = refill
    for _ in range(EPOCH_MAX_TXNS):
        gen.send("saturate", rnd, time.monotonic())
    await asyncio.sleep(seconds)
    gen.on_response = None
    await gen.settle("saturate", rnd, timeout=30.0)
    ends: dict[int, list] = {}
    for r in gen.requests:
        if r.step == "saturate" and r.round == rnd and r.status == "committed":
            end = ends.setdefault(r.epoch, [0.0, 0])
            end[0] = max(end[0], r.received)
            end[1] += 1
    closed = [ends[e] for e in sorted(ends) if ends[e][0] <= deadline]
    return [n / (t - prev) for (prev, _), (t, n) in zip(closed, closed[1:])]


def _port_of(proc, timeout: float) -> int:
    """Read the server's ``serving ... on HOST:PORT`` banner line."""
    deadline = time.monotonic() + timeout
    buf = b""
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
            raise BenchError("server did not start listening in time")
        chunk = os.read(proc.stdout.fileno(), 4096)
        if not chunk:
            raise BenchError("server exited before listening")
        buf += chunk
    line = buf.split(b"\n", 1)[0].decode()
    try:
        return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
    except (IndexError, ValueError):
        raise BenchError(f"unexpected server banner: {line!r}") from None


def start_server(root: Path, env: dict, extra: list[str], log) -> tuple:
    """Spawn a server; return (proc, port, seconds from spawn to listening)."""
    t0 = time.monotonic()
    proc = procs.spawn([*SERVER_ARGS, *extra], env, cwd=root,
                       stdout=subprocess.PIPE, stderr=log)
    try:
        port = _port_of(proc, timeout=60.0)
    except BaseException:
        procs.stop(proc)
        raise
    return proc, port, time.monotonic() - t0


def _quantile(values: list[float], q: float) -> float:
    from repro.common.stats import percentile

    return float(percentile(sorted(values), q)) if values else 0.0


def replay_check(artifact: dict, gen: Generator, tracer=None) -> dict:
    """Replay the recorded epochs in batch; compare digests.

    Returns the simulated metrics of the replay.
    """
    from repro.common.config import (
        CYCLES_PER_SECOND,
        ExperimentConfig,
        ServeConfig,
        SimConfig,
    )
    from repro.serve import replay_epochs, state_digest, txn_from_wire

    committed = [r for r in gen.requests if r.status == "committed"]
    tid_req = {r.tid: r.req_id for r in committed}
    epochs = []
    for epoch in sorted(artifact["epochs"], key=lambda e: e["epoch"]):
        if "tids" not in epoch:
            raise BenchError("drain artifact has no epoch tids")
        try:
            epochs.append([txn_from_wire(gen.docs[tid_req[t] % len(gen.docs)], tid=t)
                           for t in epoch["tids"]])
        except KeyError as e:
            raise BenchError(f"epoch holds tid {e} that no response named") from None
    serve = ServeConfig(system="tskd-cc", epoch_max_txns=EPOCH_MAX_TXNS,
                        record_epoch_tids=True)
    exp = ExperimentConfig(sim=SimConfig(num_threads=THREADS, cc="occ",
                                         engine="fast"),
                           skew=None, seed=0)
    t0 = time.perf_counter()
    if tracer is None:
        executor, outcomes = replay_epochs(serve, exp, epochs)
    else:
        with tracer.span("pass"):
            executor, outcomes = replay_epochs(serve, exp, epochs)
    replay_s = time.perf_counter() - t0
    digest = state_digest([r.req_id for r in committed],
                          executor.database_state(), tid_req)
    if digest != artifact["summary"].get("state_digest"):
        raise BenchError("replayed state digest differs from the server's")
    n = sum(o.committed for o in outcomes)
    if n != len(committed):
        raise BenchError(f"replay committed {n}, server committed {len(committed)}")
    latencies = [lat for o in outcomes for lat in o.result.latencies]
    retries = sum(o.aborts for o in outcomes)
    wasted = sum(o.result.counters.wasted_cycles for o in outcomes)
    busy = sum(sum(o.result.thread_busy) for o in outcomes)
    return {
        "replay_s": replay_s,
        "committed": n,
        "sim_tput_txn_s": n * CYCLES_PER_SECOND / max(executor.clock, 1),
        "retries_per_commit": retries / max(n, 1),
        "sim_p99_cycles": _quantile(latencies, 0.99),
        "retries": retries,
        "wasted_pct": 100.0 * wasted / busy if busy else 0.0,
        "tsdefer": executor.tsdefer,
    }


def _step_stats(gen: Generator, step: str, rnd: Optional[int] = None) -> dict:
    """Counts and latencies of one step, in one round or pooled over all."""
    mine = [r for r in gen.requests
            if r.step == step and rnd in (None, r.round)]
    ok = [r for r in mine if r.status == "committed"]
    lat = [1e3 * (r.received - r.due) for r in ok]
    parts = {k: [r.breakdown.get(k, 0.0) for r in ok if r.breakdown]
             for k in ("queue", "schedule", "execute")}
    other = [1e3 * (r.received - r.sent) - sum(
        r.breakdown.get(k, 0.0) for k in ("queue", "schedule", "execute"))
        for r in ok if r.breakdown]
    return {
        "sent": len(mine),
        "committed": len(ok),
        "rejected": sum(1 for r in mine if r.status == "rejected"),
        "failed": sum(1 for r in mine if r.status != "committed"),
        "p50_ms": _quantile(lat, 0.50),
        "p90_ms": _quantile(lat, 0.90),
        "p99_ms": _quantile(lat, 0.99),
        "lag_p99_ms": _quantile([1e3 * (r.sent - r.due) for r in mine], 0.99),
        "queue": parts["queue"],
        "schedule": parts["schedule"],
        "execute": parts["execute"],
        "other": other,
    }


def _set_affinity(pid: int, cores) -> None:
    """Pin every thread of process ``pid``.

    ``sched_setaffinity`` acts on one thread; a thread started later
    inherits the affinity of the thread that starts it.
    """
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            os.sched_setaffinity(int(task.name), cores)
        except (ProcessLookupError, FileNotFoundError):
            pass  # the thread ended while we looked


def _pinning(server_pid: int) -> Callable[[str], None]:
    """``pin(mode)`` places the server and this generator on the cores.

    Every call moves every thread of both processes, the server's
    schedule and execute pool threads included.  ``apart`` gives each
    process a core, so neither preempts the other; ``free`` undoes it.
    """
    cores = sorted(os.sched_getaffinity(0))
    places = {"apart": (cores[-1:], cores[:1]),
              "free": (cores, cores)}

    def pin(mode: str) -> None:
        if len(cores) > 1:
            server, generator = places[mode]
            _set_affinity(server_pid, server)
            _set_affinity(os.getpid(), generator)

    return pin


async def _drive(gen: Generator, port: int, seconds: float, seed: int,
                 pin: Callable[[str], None]) -> list[list[float]]:
    await gen.connect(port, min(2, os.cpu_count() or 1))
    pin("apart")
    await open_step(gen, "warmup", 0, LIGHT_TPS, min(1.5, seconds / 20),
                    seed * 64)
    sat = []
    for rnd in range(ROUNDS):
        share = seconds / ROUNDS
        pin("apart")
        await open_step(gen, "light", rnd, LIGHT_TPS, share * SHARE["light"],
                        seed * 64 + 2 * rnd + 1)
        await open_step(gen, "loaded", rnd, LOADED_TPS, share * SHARE["loaded"],
                        seed * 64 + 2 * rnd + 2)
        sat.append(await closed_step(
            gen, rnd, max(share * SHARE["saturate"], MIN_SATURATE_S)))
    return sat


def make_pool(seed: int) -> tuple[list[dict], list[bytes]]:
    """Seeded YCSB (theta 0.8) transactions, encoded once for the wire."""
    from repro.bench.workloads import YcsbGenerator
    from repro.common.config import YcsbConfig
    from repro.serve.protocol import encode_frame, txn_to_wire

    txns = YcsbGenerator(YcsbConfig(theta=0.8), seed=seed).make_workload(POOL)
    docs = [txn_to_wire(t) for t in txns]
    frames = [encode_frame({"type": "submit", "id": 0, "txn": d}) for d in docs]
    return docs, frames


def run(root: Path, out_dir: Path, env: dict, seed: int, seconds: float,
        trace: bool) -> dict:
    """One serve_open run; returns end-to-end and per-layer metrics."""
    t0 = time.perf_counter()
    docs, frames = make_pool(seed)
    build_s = time.perf_counter() - t0
    log_path = out_dir / f"serve-{os.getpid()}.log"
    artifact_path = out_dir / f"serve-{os.getpid()}.json"
    setups = []
    with open(log_path, "wb") as log:
        for _ in range(SETUPS - 1):
            proc, _port, setup = start_server(root, env, [], log)
            setups.append(setup)
            proc.send_signal(signal.SIGINT)  # graceful drain and exit
            procs.stop(proc, grace=10.0)
        proc, port, setup = start_server(
            root, env, ["--record-epoch-tids", "--exit-on-drain",
                        "--export-json", str(artifact_path)], log)
        setups.append(setup)
        try:
            gen = Generator(frames=frames, docs=docs)
            sat_rates, summary = asyncio.run(
                _session(gen, port, seconds, seed, _pinning(proc.pid)))
            rss = procs.reap(proc, 30.0)
            if rss is None or proc.returncode != 0:
                raise BenchError("server did not exit cleanly after drain")
        finally:
            procs.stop(proc)
    try:
        artifact = json.loads(artifact_path.read_text())
    finally:
        artifact_path.unlink(missing_ok=True)
        log_path.unlink(missing_ok=True)

    duplicates = sum(1 for r in gen.requests if r.responses > 1)
    unanswered = sum(1 for r in gen.requests if r.responses == 0)
    if duplicates or unanswered or gen.errors:
        raise BenchError(f"{unanswered} unanswered, {duplicates} answered "
                         f"twice, {gen.errors} error frames")
    if summary.get("state_digest") != artifact["summary"].get("state_digest"):
        raise BenchError("drained summary and artifact disagree")

    sim = replay_check(artifact, gen)
    overhead_s = 0.0
    layers = {}
    if trace:
        from tracer import Tracer, install_layer_spans

        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            traced = replay_check(artifact, gen, tracer)
        finally:
            tracer.unwrap_all()
        overhead_s = traced["replay_s"] - sim["replay_s"]
        layers = _serve_layers(gen, artifact, traced, tracer)
        layers["workloads.build_s"] = build_s
        layers["trace.overhead_s"] = overhead_s
        layers["trace.overhead_pct"] = 100.0 * overhead_s / sim["replay_s"]

    epoch_rates = [rate for rates in sat_rates for rate in rates]
    if not epoch_rates:
        raise BenchError("no saturate epoch closed by size")
    steps = {s: _step_stats(gen, s) for s in STEPS}
    light = [_step_stats(gen, "light", rnd) for rnd in range(ROUNDS)]
    sent = len(gen.requests)
    failed = sum(1 for r in gen.requests if r.status != "committed")
    # Not scaled by machine speed (speed.py): the probe, run from the
    # generator between steps, spread more than the service rate did.
    layers["raw.wall_txn_s"] = statistics.median(epoch_rates)
    layers["raw.setup_s"] = statistics.median(setups)
    return {
        "attempted": sent,
        "failed": failed,
        "steps": steps,
        "metrics": {
            "wall_txn_s": statistics.median(epoch_rates),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
            "sim_tput_txn_s": sim["sim_tput_txn_s"],
            "retries_per_commit": sim["retries_per_commit"],
            "sim_p99_cycles": sim["sim_p99_cycles"],
            "p50_ms": statistics.median(st["p50_ms"] for st in light),
            "p90_ms": statistics.median(st["p90_ms"] for st in light),
        },
        "layers": layers,
    }


async def _session(gen: Generator, port: int, seconds: float, seed: int,
                   pin: Callable[[str], None]):
    try:
        sat = await _drive(gen, port, seconds, seed, pin)
        summary = await gen.drain(timeout=60.0)
    finally:
        pin("free")
        await gen.close()
    return sat, summary


def _serve_layers(gen, artifact, traced, tracer) -> dict:
    from batch_pass import probe_metrics
    from repro.obs.metrics import MetricsRegistry

    epochs = artifact["epochs"]
    sizes = [e["size"] for e in epochs]
    registry = MetricsRegistry()
    traced["tsdefer"].publish(registry)
    n = max(traced["committed"], 1)
    self_s = tracer.self_times()
    sent = len(gen.requests)
    out = {
        "batcher.epoch_size_mean": statistics.fmean(sizes) if sizes else 0.0,
        "batcher.deadline_close_pct": 100.0 * sum(
            1 for e in epochs if e["reason"] == "deadline") / max(len(epochs), 1),
        "serve.reject_pct": 100.0 * sum(
            1 for r in gen.requests if r.status == "rejected") / max(sent, 1),
        "serve.fail_pct": 100.0 * sum(
            1 for r in gen.requests if r.status != "committed") / max(sent, 1),
        "tsgen.busy_s": self_s.get("tsgen", 0.0),
        "engine.busy_s": self_s.get("engine", 0.0),
        "engine.us_per_txn": 1e6 * sum(
            e - s for name, s, e, _p in tracer.spans if name == "engine") / n,
        "progress_table.busy_s": self_s.get("progress_table", 0.0),
        **probe_metrics(lambda name: registry.value(name) or 0, n),
        "cc.validation_failures": traced["retries"],
        "cc.wasted_cycles_pct": traced["wasted_pct"],
        "runner.epochs": len(epochs),
        "trace.other_s": self_s.get("pass", 0.0),
    }
    for step in STEPS:
        st = _step_stats(gen, step)
        for part in ("queue", "schedule", "execute"):
            out[f"serve.{step}.{part}_p50_ms"] = _quantile(st[part], 0.50)
            out[f"serve.{step}.{part}_p99_ms"] = _quantile(st[part], 0.99)
        out[f"serve.{step}.other_p50_ms"] = _quantile(st["other"], 0.50)
        out[f"serve.{step}.p50_ms"] = st["p50_ms"]
        out[f"serve.{step}.p99_ms"] = st["p99_ms"]
        out[f"loadgen.{step}.lag_p99_ms"] = st["lag_p99_ms"]
        for k in ("sent", "committed", "rejected", "failed"):
            out[f"loadgen.{step}.{k}"] = st[k]
    return out
