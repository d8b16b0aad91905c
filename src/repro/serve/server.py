"""The serving front door: asyncio TCP server speaking ``repro.wire/1``.

Connections are cheap: each one is a reader loop that decodes frames,
admits transactions, and writes responses as epoch outcomes resolve.
Behind admission, execution is spread over ``serve.shards`` engine
shards (:mod:`.shard`), each owning a hash partition of the key space
(:mod:`.router`) behind its own epoch batcher.  A single-engine server
is a one-shard cluster whose shard runs in-process.

Topology::

    conns -> admit -> classify -> shard 0 batcher \\
                                  shard 1 batcher  > shared sink -> dispatcher
                                  ...             /
                                  cross batcher  /

    dispatcher: single-shard epoch  -> owning shard (schedule + execute)
                cross-shard epoch   -> agreed order (coordinator), one
                                       ordered slice per participant

Admission control is a single bounded count: transactions admitted but
not yet responded to.  At ``queue_limit`` the server answers submits
with ``status="rejected"`` and a ``retry_after_ms`` hint instead of
queueing unboundedly — the client owns the retry, so an overloaded
server degrades into explicit backpressure rather than latency collapse.

**Determinism.**  Epoch ids come from one shared counter drawn at close
time, and every closed epoch funnels through one sink consumed by one
dispatcher that *synchronously* queues work on each shard's FIFO channel
— so each shard receives and executes its epochs in global id order, and
a replay that walks the recorded epochs in id order
(:func:`~repro.serve.coordinator.replay_cluster`, or
:func:`~repro.serve.pipeline.replay_epochs` for one shard) reconstructs
the exact per-shard state.  Cross-shard epochs commit in an order fixed
by ``Rng(seed).fork(epoch_id)`` (:mod:`.coordinator`): deterministic, no
2PC, no aborts.

**Fail-stop.**  A dead shard (chaos: :class:`repro.faults.ShardFailStop`)
fails its in-flight and future epochs with explicit backpressure
rejects; surviving shards keep serving, and drain still writes an
artifact whose ``shards`` section records who died.  Cross-shard
transactions touching a dead participant are rejected whole; slices a
surviving participant already executed are *not* rolled back — ordered
epoch commit removes aborts, not the need for recovery, which stays out
of scope (docs/sharding.md).

A ``drain`` frame (or SIGINT on the CLI path) closes the open epochs,
waits for every in-flight epoch to finish, writes a ``repro.serve/1``
artifact, and answers ``drained`` with the session summary.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from typing import Callable, Optional, Sequence

from ..common.config import ConfigError, ExperimentConfig, ServeConfig
from ..common.stats import percentile
from ..obs.artifact import build_serve_artifact, export_serve
from ..obs.live import SlidingWindow
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import JsonlTracer
from .batcher import Epoch, EpochBatcher, Submission
from .coordinator import agreed_order, slice_epoch
from .pipeline import EpochSpan, TxnOutcome, state_digest
from .protocol import (
    CLIENT_FRAMES,
    MAX_FRAME_BYTES,
    STATUS_COMMITTED,
    STATUS_REJECTED,
    WireError,
    decode_frame,
    encode_frame,
    error_frame,
    response_frame,
    txn_from_wire,
)
from .router import RouteDecision, ShardRouter
from .shard import InlineShard, ProcessShard, ShardDeadError

#: Wall-ms histogram buckets for epoch and response latencies.
SERVE_MS_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
                    500.0, 1_000.0, 2_000.0, 5_000.0)

#: Epoch-size histogram buckets.
EPOCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 2_048)


class ServeServer:
    """A live scheduling service over ``serve.shards`` persistent stores."""

    def __init__(
        self,
        serve: ServeConfig,
        exp: ExperimentConfig,
        export_path: Optional[str] = None,
        exit_on_drain: bool = False,
        trace_path: Optional[str] = None,
        shard_mode: str = "process",
        shard_faults: Sequence = (),
    ):
        if trace_path is not None and serve.shards > 1:
            raise ConfigError(
                "span tracing is per-engine and not yet wired across "
                "shard processes; run --shards 1 to trace"
            )
        if shard_mode not in ("process", "inline"):
            raise ConfigError(
                f"shard_mode must be 'process' or 'inline', got {shard_mode!r}"
            )
        # shard id -> fail_after_epochs, from ShardFailStop chaos specs.
        fail_after = {}
        for fault in shard_faults:
            if fault.shard >= serve.shards:
                raise ConfigError(
                    f"ShardFailStop names shard {fault.shard}; "
                    f"cluster has {serve.shards}"
                )
            fail_after[fault.shard] = fault.after_epochs
        self.serve = serve
        self.exp = exp
        self.export_path = export_path
        #: When set, the server closes its listener after answering the
        #: first drain frame (the CI smoke path: loadgen --drain ends
        #: the whole session).
        self.exit_on_drain = exit_on_drain
        #: Optional JSONL span log: engine events plus one "epoch" event
        #: per executed epoch, consumable by ``repro trace --chrome``.
        self.tracer = JsonlTracer(trace_path) if trace_path else None
        self.metrics = MetricsRegistry()
        self.router = ShardRouter(serve.shards)

        # One shard runs in-process and is the single-engine server;
        # ``shard_mode`` picks the worker kind for N > 1 (the
        # in-process kind is the test seam there).
        self.shard_mode = "inline" if serve.shards == 1 else shard_mode
        if self.shard_mode == "process":
            self.shards = [ProcessShard(s, serve, exp, fail_after.get(s))
                           for s in range(serve.shards)]
        else:
            self.shards = [InlineShard(s, serve, exp, fail_after.get(s),
                                       tracer=self.tracer)
                           for s in range(serve.shards)]

        #: All closed epochs, every batcher, one queue: the dispatcher
        #: consumes them in close order == shared-counter id order.
        self._sink: asyncio.Queue = asyncio.Queue()
        next_epoch_id = itertools.count().__next__
        self.shard_batchers = [
            EpochBatcher(serve.epoch_max_txns, serve.epoch_max_ms,
                         sink=self._sink, id_source=next_epoch_id,
                         meta={"shard": s})
            for s in range(serve.shards)
        ]
        self.cross_batcher = EpochBatcher(
            serve.epoch_max_txns, serve.epoch_max_ms,
            sink=self._sink, id_source=next_epoch_id,
            meta={"cross": True},
        )
        self._all_batchers = [*self.shard_batchers, self.cross_batcher]
        #: tid -> RouteDecision of each cross-shard txn waiting for its
        #: epoch; popped when that epoch begins.
        self._routes: dict[int, RouteDecision] = {}
        self._dispatch_task: Optional[asyncio.Task] = None
        self._epoch_tasks: set = set()
        #: One span per executed (or failed) epoch, in completion order.
        self.spans: list[EpochSpan] = []
        #: shard id -> final database state, captured at drain.
        self._shard_states: dict[int, dict] = {}
        #: Aliveness at the moment of drain: stopping a worker closes
        #: its pipe just like a crash would, so the artifact must
        #: record who was alive *before* shutdown tore everyone down.
        self._alive_at_drain: Optional[dict[int, bool]] = None

        from ..predict.policy import make_policy
        from ..predict.sketch import DecayedCountMinSketch

        #: The adaptive policy (repro.predict) consulted at admission and
        #: reported in stats and the artifact, or None (static).  With
        #: one shard it is that shard's own executor policy.  With N,
        #: each shard worker adapts locally, and the server keeps one
        #: sketch per shard — fed from the commit outcomes it already
        #: holds, so no extra wire traffic — merged at every epoch
        #: boundary into a coordinator policy of its own.
        self._shard_sketches: dict[int, DecayedCountMinSketch] = {}
        if serve.shards == 1:
            self._policy = self.shards[0].executor.policy
        else:
            self._policy = make_policy(exp.predict, exp.seed)
            if self._policy is not None:
                p = exp.predict
                self._shard_sketches = {
                    s: DecayedCountMinSketch(
                        width=p.width, depth=p.depth, decay=p.decay,
                        seed=exp.seed, hot_capacity=p.hot_capacity,
                    )
                    for s in range(serve.shards)
                }

        self._server: Optional[asyncio.base_events.Server] = None
        self._conn_tasks: set = set()
        self._started = 0.0
        self._next_tid = 0
        #: Admitted but not yet responded to — the backpressure bound.
        self._pending = 0
        self._submitted = 0
        self._admitted = 0
        self._rejected = 0
        self._committed = 0
        #: Server tid -> client request id, recorded at admission.  The
        #: canonical state digest rewrites last-writer tids into request
        #: ids, which are arrival-order independent (see state_digest).
        self._tid_req: dict[int, int] = {}
        #: Request ids of committed transactions, in response order.
        self._commit_req_ids: list[int] = []
        self._response_ms: list[float] = []
        #: Exact response-latency quantiles over the last W wall seconds
        #: (the live section of the stats frame; see repro.obs.live).
        self._latency_window = SlidingWindow()
        self._drained = asyncio.Event()
        self._draining = False

    def _admission_policy(self):
        """The adaptive policy consulted at admission, or None (static)."""
        return self._policy

    # -- lifecycle --------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the actual ephemeral one)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._started = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.serve.host,
            port=self.serve.port,
            limit=MAX_FRAME_BYTES + 1_024,
        )
        for shard in self.shards:
            shard.start()
        self._dispatch_task = asyncio.create_task(self._dispatch_loop())

    async def serve_forever(self) -> None:
        """Run until the listener is closed (drain with exit_on_drain)."""
        async with self._server:
            try:
                await self._server.serve_forever()
            except asyncio.CancelledError:
                pass

    async def stop(self) -> dict:
        """Drain and shut down; returns the session summary."""
        summary = await self.drain()
        self._server.close()
        await self._server.wait_closed()
        await self.close_connections()
        return summary

    async def close_connections(self) -> None:
        """Cancel reader loops still parked on idle connections."""
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def drain(self) -> dict:
        """Flush the open epochs, finish in-flight work, write the artifact."""
        if not self._drained.is_set():
            if not self._draining:
                self._draining = True
                for batcher in self._all_batchers:
                    batcher.shutdown()
                await self._dispatch_task
                self._alive_at_drain = {s.shard_id: bool(s.alive)
                                        for s in self.shards}
                for shard in self.shards:
                    if not shard.alive:
                        continue
                    try:
                        self._shard_states[shard.shard_id] = (
                            await shard.database_state()
                        )
                    except ShardDeadError:
                        pass  # died between the last epoch and drain
                for shard in self.shards:
                    await shard.stop()
                if self.tracer is not None:
                    self.tracer.close()
                if self._policy is not None:
                    # Final predict.* counters/gauges for the artifact's
                    # metrics registry (live values ride the stats frame).
                    self._policy.publish(self.metrics)
                # Set before exporting so the artifact's summary carries
                # the post-drain state digest.
                self._drained.set()
                if self.export_path is not None:
                    export_serve(self.export_path, **self._artifact_sections())
            else:
                await self._drained.wait()
        return self.summary()

    # -- per-connection reader loop --------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        # Swallow cancellation at the task boundary: the streams machinery
        # probes task.exception() in a plain callback, and a propagated
        # CancelledError there is reported as a loop-teardown traceback.
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass  # server shutdown interrupted a parked readline
        finally:
            self._conn_tasks.discard(task)

    async def _connection_loop(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # oversized line or peer reset
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    doc = decode_frame(line, CLIENT_FRAMES)
                except WireError as e:
                    writer.write(encode_frame(error_frame(str(e))))
                    await writer.drain()
                    continue
                kind = doc["type"]
                if kind == "submit":
                    self._handle_submit(doc, writer)
                elif kind == "stats":
                    writer.write(encode_frame(
                        {"type": "stats", "data": self.stats()}
                    ))
                elif kind == "drain":
                    summary = await self.drain()
                    writer.write(encode_frame(
                        {"type": "drained", "summary": summary}
                    ))
                    await writer.drain()
                    if self.exit_on_drain:
                        self._server.close()
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, asyncio.CancelledError):
                pass  # peer vanished or the loop is shutting down

    def _handle_submit(self, doc: dict, writer) -> None:
        self._submitted += 1
        self.metrics.counter(
            "serve.submitted", "submit frames received"
        ).inc()
        req_id = doc["id"]
        if self._draining or self._pending >= self.serve.queue_limit:
            self._reject_now(req_id, writer)
            return
        try:
            txn = txn_from_wire(doc["txn"], tid=self._next_tid)
        except WireError as e:
            writer.write(encode_frame(error_frame(str(e))))
            return
        policy = self._policy
        if policy is not None and policy.should_reject(
            txn, self._pending / max(1, self.serve.queue_limit)
        ):
            # Priority admission band: with the queue running hot, shed
            # predicted-conflict-prone transactions first so cold traffic
            # keeps flowing (docs/adaptive.md).  The tid is not consumed.
            self.metrics.counter(
                "predict.admission_shed",
                "predicted-hot submits shed under backpressure",
            ).inc()
            self._reject_now(req_id, writer)
            return
        self._next_tid += 1
        self._pending += 1
        self._admitted += 1
        self._tid_req[txn.tid] = req_id
        self.metrics.counter("serve.admitted", "transactions admitted").inc()
        self.metrics.gauge(
            "serve.queue_depth", "admitted, not yet responded"
        ).set(self._pending)
        future = asyncio.get_running_loop().create_future()
        sub = Submission(
            tid=txn.tid,
            req_id=req_id,
            txn=txn,
            submitted_at=time.monotonic(),
            future=future,
            conn=writer,
        )
        future.add_done_callback(
            lambda fut, sub=sub: self._respond(sub, fut)
        )
        self._route(sub)

    def _route(self, sub: Submission) -> None:
        """Batch an admitted submission toward the shard(s) it touches."""
        decision = self.router.classify(sub.txn)
        if decision.cross:
            if all(self.shards[s].alive for s in decision.shards):
                self._routes[sub.tid] = decision
                self.cross_batcher.put(sub)
            else:
                self._reject_submission(sub, decision.home, cross=True)
        elif self.shards[decision.home].alive:
            self.shard_batchers[decision.home].put(sub)
        else:
            # The owning shard is gone: reject at dispatch rather than
            # batching toward a worker that can never answer.
            self._reject_submission(sub, decision.home, cross=False)

    def _reject_now(self, req_id: int, writer) -> None:
        """Backpressure a submit before admission (bounded queue / drain)."""
        self._rejected += 1
        self.metrics.counter(
            "serve.rejected", "submits rejected by backpressure"
        ).inc()
        writer.write(encode_frame(response_frame(
            req_id, STATUS_REJECTED,
            retry_after_ms=self.serve.retry_after_ms,
        )))

    def _respond(self, sub: Submission, fut: asyncio.Future) -> None:
        outcome: TxnOutcome = fut.result()
        self._pending -= 1
        self.metrics.gauge("serve.queue_depth").set(self._pending)
        writer = sub.conn
        # One-shard responses carry no placement (the wire format of the
        # single-engine server).
        where = ({"shard": outcome.shard, "cross_shard": outcome.cross_shard}
                 if self.serve.shards > 1 else {})
        if outcome.status == STATUS_REJECTED:
            # Admitted, but the owning shard died before its epoch ran:
            # an explicit late backpressure reject, never silence.
            self._rejected += 1
            self.metrics.counter(
                "serve.rejected", "submits rejected by backpressure"
            ).inc()
            if writer is None or writer.is_closing():
                return
            writer.write(encode_frame(response_frame(
                sub.req_id, STATUS_REJECTED,
                retry_after_ms=self.serve.retry_after_ms, **where,
            )))
            return
        self._committed += 1
        self._commit_req_ids.append(sub.req_id)
        self.metrics.counter(
            "serve.committed", "transactions committed"
        ).inc()
        total_s = time.monotonic() - sub.submitted_at
        total_ms = total_s * 1_000.0
        self._response_ms.append(total_ms)
        self._latency_window.observe(total_ms)
        self.metrics.histogram(
            "serve.latency_ms", SERVE_MS_BUCKETS,
            "submit-to-response wall latency",
        ).observe(total_ms)
        if writer is None or writer.is_closing():
            return
        writer.write(encode_frame(response_frame(
            sub.req_id,
            STATUS_COMMITTED,
            tid=outcome.tid,
            epoch=outcome.epoch_id,
            attempts=outcome.attempts,
            latency_ms={
                "queue": outcome.queue_s * 1_000.0,
                "schedule": outcome.schedule_s * 1_000.0,
                "execute": outcome.execute_s * 1_000.0,
                "total": total_ms,
            },
            **where,
        )))

    # -- the dispatcher ---------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """Single consumer of the shared sink; begins epochs in id order.

        ``_begin_*`` are synchronous through the point where each
        participant's FIFO position is fixed, which is what makes
        per-shard execution order equal global epoch-id order.
        """
        open_streams = len(self._all_batchers)
        while open_streams:
            epoch = await self._sink.get()
            if epoch is None:
                open_streams -= 1
                continue
            if epoch.meta.get("cross"):
                self._begin_cross_epoch(epoch)
            else:
                self._begin_shard_epoch(epoch, epoch.meta["shard"])
        if self._epoch_tasks:
            await asyncio.gather(*self._epoch_tasks)

    def _track(self, coro) -> None:
        task = asyncio.create_task(coro)
        self._epoch_tasks.add(task)
        task.add_done_callback(self._untrack)

    def _untrack(self, task: asyncio.Task) -> None:
        # A failed epoch task stays, so the dispatcher's final gather
        # re-raises its error at drain instead of dropping it.
        if task.cancelled() or task.exception() is None:
            self._epoch_tasks.discard(task)

    def _begin_shard_epoch(self, epoch: Epoch, shard_id: int) -> None:
        begun = time.monotonic()
        fut = self.shards[shard_id].begin_epoch(
            epoch.epoch_id, epoch.transactions()
        )
        self._track(self._finish_epoch(
            epoch, [fut], begun, shard_id, lambda tid: shard_id
        ))

    def _begin_cross_epoch(self, epoch: Epoch) -> None:
        txns = epoch.transactions()
        routes = [self._routes.pop(t.tid) for t in txns]
        homes = {t.tid: r.home for t, r in zip(txns, routes)}
        participants = sorted({s for r in routes for s in r.shards})
        ordered = agreed_order(txns, self.exp.seed, epoch.epoch_id)
        slices = slice_epoch(ordered, participants, homes, self.router)
        begun = time.monotonic()
        futs = [
            self.shards[s].begin_epoch(epoch.epoch_id, slices[s], cross=True)
            for s in participants if slices[s]
        ]
        self._track(self._finish_epoch(
            epoch, futs, begun, None, homes.__getitem__
        ))

    async def _finish_epoch(
        self,
        epoch: Epoch,
        futs: list[asyncio.Future],
        begun: float,
        shard_id: Optional[int],
        home_of: Callable[[int], int],
    ) -> None:
        """Await an epoch's shard results, record its span, answer it.

        ``shard_id`` is None for a cross-shard epoch, whose slices run
        on their shards side by side: its span covers all of them, and
        its stage times are the slowest slice's.  If any participant
        died the epoch cannot commit
        atomically, so every transaction in it is rejected (see the
        module docstring for the surviving-slice caveat).
        """
        cross = shard_id is None
        results = await asyncio.gather(*futs, return_exceptions=True)
        done = time.monotonic()
        for r in results:
            if isinstance(r, BaseException) and not isinstance(
                    r, ShardDeadError):
                raise r  # an executor bug, not a fail-stop
        dead = any(isinstance(r, ShardDeadError) for r in results)
        if dead:
            results = []
        attempts: dict[int, int] = {}
        for result in results:
            for tid, n in result.attempts.items():
                attempts[tid] = max(attempts.get(tid, 0), n)
        schedule_s = max((r.schedule_s for r in results), default=0.0)
        execute_s = max((r.execute_s for r in results), default=0.0)
        start = min((r.started_at for r in results), default=done)
        self._record_span(EpochSpan(
            epoch_id=epoch.epoch_id,
            size=epoch.size,
            reason=epoch.reason,
            opened_at=epoch.opened_at,
            closed_at=epoch.closed_at,
            sched_start=start,
            sched_end=start + schedule_s,
            exec_start=start + schedule_s,
            exec_end=max((r.started_at + r.schedule_s + r.execute_s
                          for r in results), default=done),
            start_cycles=min((r.start_cycles for r in results), default=0),
            end_cycles=max((r.end_cycles for r in results), default=0),
            committed=len(attempts),
            aborts=sum(r.aborts for r in results),
            shard=-1 if cross else shard_id,
            cross=cross,
            tids=([s.tid for s in epoch.subs]
                  if self.serve.record_epoch_tids else None),
        ))
        if dead:
            for sub in epoch.subs:
                self._reject_submission(sub, home_of(sub.tid), cross)
            return
        self._feed_predict(epoch, attempts, home_of)
        for sub in epoch.subs:
            if sub.future is None or sub.future.done():
                continue
            sub.future.set_result(TxnOutcome(
                tid=sub.tid,
                epoch_id=epoch.epoch_id,
                attempts=attempts.get(sub.tid, 1),
                queue_s=max(0.0, done - sub.submitted_at
                            - schedule_s - execute_s),
                schedule_s=schedule_s,
                execute_s=execute_s,
                status=STATUS_COMMITTED,
                shard=home_of(sub.tid),
                cross_shard=cross,
            ))

    def _feed_predict(self, epoch: Epoch, attempts: dict, home_of) -> None:
        """Fold an epoch's committed write sets into the per-shard
        sketches, then refresh the coordinator's merged view."""
        if not self._shard_sketches:
            return  # static, or one shard adapting on its own
        for sub in epoch.subs:
            if sub.tid in attempts:
                self._policy.commits_observed += 1
                sketch = self._shard_sketches[home_of(sub.tid)]
                for key in sub.txn.write_set:
                    sketch.update(key)
        for sketch in self._shard_sketches.values():
            sketch.decay()
        self._policy.adopt_merged(self._shard_sketches.values())

    def _reject_submission(
        self, sub: Submission, shard: int, cross: bool
    ) -> None:
        """Late backpressure: admitted, but the owning shard is dead."""
        if sub.future is None or sub.future.done():
            return
        sub.future.set_result(TxnOutcome(
            tid=sub.tid,
            epoch_id=-1,
            attempts=0,
            queue_s=time.monotonic() - sub.submitted_at,
            schedule_s=0.0,
            execute_s=0.0,
            status=STATUS_REJECTED,
            shard=shard,
            cross_shard=cross,
        ))

    def _record_span(self, span: EpochSpan) -> None:
        self.spans.append(span)
        where = "cross" if span.cross else f"shard{span.shard}"
        self.metrics.counter("serve.epochs", "epochs executed").inc()
        self.metrics.counter(
            f"serve.{where}.epochs", "epochs executed by this shard"
        ).inc()
        self.metrics.counter(
            f"serve.{where}.committed", "transactions committed on this shard"
        ).inc(span.committed)
        self.metrics.counter(
            "serve.epoch_aborts", "CC aborts across all epochs"
        ).inc(span.aborts)
        self.metrics.counter(
            f"serve.epochs_closed.{span.reason}", "epochs by close reason"
        ).inc()
        self.metrics.histogram(
            "serve.epoch_size", EPOCH_SIZE_BUCKETS,
            "transactions per closed epoch",
        ).observe(span.size)
        self.metrics.histogram(
            "serve.epoch_ms", SERVE_MS_BUCKETS,
            "epoch wall time, first admission to execution end",
        ).observe((span.exec_end - span.opened_at) * 1_000.0)

    # -- introspection ----------------------------------------------------
    @property
    def epoch_records(self) -> list[tuple]:
        """``(epoch_id, shard | None, cross, tids)`` per recorded epoch:
        what :func:`~repro.serve.coordinator.replay_cluster` replays
        (``record_epoch_tids`` servers only)."""
        return [(s.epoch_id, None if s.cross else s.shard, s.cross, s.tids)
                for s in self.spans if s.tids is not None]

    @property
    def end_cycles(self) -> int:
        """Max virtual-clock cursor over the shards (they tick apart)."""
        return max((s.end_cycles for s in self.shards), default=0)

    def stats(self) -> dict:
        """The enriched ``stats`` frame: totals plus live telemetry.

        The flat keys predate enrichment and stay for compatibility;
        ``window`` (sliding-window latency quantiles), ``pipeline``
        (epochs in flight), ``admission`` (backpressure state),
        ``epochs_by_reason``, ``shards``, and the full ``metrics``
        registry snapshot feed ``repro watch`` (see repro.obs.live).
        """
        reasons: dict[str, int] = {}
        for batcher in self._all_batchers:
            for reason, n in batcher.closed_by_reason.items():
                reasons[reason] = reasons.get(reason, 0) + n
        doc = {
            "submitted": self._submitted,
            "admitted": self._admitted,
            "rejected": self._rejected,
            "committed": self._committed,
            "pending": self._pending,
            "epoch_open": sum(b.pending for b in self._all_batchers),
            "epochs_closed": sum(b.epochs_closed for b in self._all_batchers),
            "epochs_executed": len(self.spans),
            "end_cycles": self.end_cycles,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "window": self._latency_window.snapshot(),
            "pipeline": {
                "in_flight": len(self._epoch_tasks),
                "depth": self.serve.shards,
                "staged": self._sink.qsize(),
            },
            "admission": {
                "pending": self._pending,
                "queue_limit": self.serve.queue_limit,
                "rejected": self._rejected,
            },
            "epochs_by_reason": reasons,
            "shards": self._shards_section(),
            "metrics": self.metrics.to_dict(),
        }
        if self._policy is not None:
            # Live sketch heat + retune trail for `repro watch`; the key
            # is absent on static servers.
            doc["predict"] = self._policy.snapshot()
        return doc

    def summary(self) -> dict:
        lat = sorted(self._response_ms)
        doc = {
            "submitted": self._submitted,
            "admitted": self._admitted,
            "rejected": self._rejected,
            "committed": self._committed,
            "epochs": len(self.spans),
            "end_cycles": self.end_cycles,
            "wall_s": round(time.monotonic() - self._started, 3),
            "latency_ms": {
                "p50": round(float(percentile(lat, 0.50)), 3),
                "p95": round(float(percentile(lat, 0.95)), 3),
                "p99": round(float(percentile(lat, 0.99)), 3),
            },
        }
        # Only a quiesced store has a meaningful digest: the canonical
        # digest of commits + final db state, in request-id space.
        if self._drained.is_set():
            merged: dict = {}
            for state in self._shard_states.values():
                merged.update(state)
            doc["state_digest"] = state_digest(
                self._commit_req_ids, merged, self._tid_req)
        return doc

    def server_info(self) -> dict:
        return {
            "system": self.serve.system,
            "host": self.serve.host,
            "port": self.port if self._server is not None else self.serve.port,
            "epoch_max_txns": self.serve.epoch_max_txns,
            "epoch_max_ms": self.serve.epoch_max_ms,
            "queue_limit": self.serve.queue_limit,
            "assignment": self.serve.assignment,
            "shards": self.serve.shards,
            "shard_mode": self.shard_mode,
        }

    def _shards_section(self) -> dict:
        alive = self._alive_at_drain
        return {
            "count": self.serve.shards,
            "per_shard": [
                {
                    "shard": shard.shard_id,
                    "alive": (bool(shard.alive) if alive is None
                              else alive[shard.shard_id]),
                    "epochs": shard.epochs_done,
                    "committed": shard.committed,
                    "aborts": shard.aborts,
                    "end_cycles": shard.end_cycles,
                }
                for shard in self.shards
            ],
        }

    def _artifact_sections(self) -> dict:
        return dict(
            server_info=self.server_info(),
            summary=self.summary(),
            epochs=[span.to_dict() for span in self.spans],
            metrics=self.metrics,
            config=self.exp,
            shards=self._shards_section(),
            predict=(self._policy.snapshot()
                     if self._policy is not None else None),
        )

    def artifact(self) -> dict:
        return build_serve_artifact(**self._artifact_sections())
