"""One engine shard of the serving cluster: a worker owning a partition.

A shard is an :class:`~repro.serve.pipeline.EpochExecutor` — one TSKD
instance, one persistent :class:`~repro.storage.database.Database`, one
engine with its virtual clock and TsDEFER state — fed epochs over a
message channel and answering with epoch results.  Two implementations
share the interface:

* :class:`ProcessShard` — the executor lives in its own **spawned
  worker process** (the same spawn + ``PYTHONHASHSEED=0`` determinism
  machinery as :mod:`repro.bench.parallel`), so N shards schedule and
  execute on N cores with no GIL sharing.  The parent talks to it over a
  duplex pipe: a dedicated reader thread pumps results back into the
  event loop, and sends go through a one-thread executor so a pipe full
  of epochs never blocks the loop.

* :class:`InlineShard` — the executor lives in-process behind a
  one-thread pool: the single-engine server (``--shards 1``) and the
  test seam for N shards without process spin-up.  Process shards run
  under ``PYTHONHASHSEED=0``; inline shards follow the interpreter's
  own hash seed, and partitioner tie-breaks follow the str hash seed
  (ROADMAP item 6), so the two kinds agree bit for bit only when the
  parent also runs with ``PYTHONHASHSEED=0``.

Ordering contract (what determinism rests on): ``begin_epoch`` is
synchronous and the channel is FIFO, so a shard receives — and executes,
one at a time — its epochs in exactly the order the cluster dispatcher
began them.  Replay feeds the same slices in the same order to a fresh
executor and lands on the same state (see docs/sharding.md).

Fail-stop: a worker built with ``fail_after_epochs=K`` hard-exits
(``os._exit``) on *receiving* its K-th epoch.  The parent notices the
pipe going down, marks the shard dead, and fails every in-flight and
future ``begin_epoch`` with :class:`ShardDeadError` — the cluster turns
those into explicit backpressure rejects (never silence).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Optional, Sequence

from ..common.config import ExperimentConfig, ServeConfig
from ..common.errors import ReproError
from ..txn.transaction import Transaction
from .pipeline import EpochExecutor

#: Message kinds on the parent->worker channel.
_MSG_EPOCH = "epoch"          # scheduled single-shard epoch
_MSG_CROSS = "cross"          # pre-ordered cross-shard slice
_MSG_STATE = "state"          # dump final database state
_MSG_STOP = "stop"            # graceful shutdown


class ShardDeadError(ReproError):
    """The shard's worker process is gone; its epoch cannot run."""


@dataclass
class ShardEpochResult:
    """What one shard reports back for one executed epoch (slice)."""

    epoch_id: int
    #: tid -> attempts, for the transactions this shard executed.
    attempts: dict[int, int]
    start_cycles: int
    end_cycles: int
    aborts: int
    #: ``time.monotonic()`` in the worker as scheduling began.  The
    #: monotonic clock is host-wide, so the server can place the stages
    #: on its own timeline.
    started_at: float
    #: Wall seconds of the schedule and execute calls, measured in the
    #: worker around each (schedule is 0 for a cross-shard slice).
    schedule_s: float
    execute_s: float


def run_epoch(
    executor: EpochExecutor,
    epoch_id: int,
    txns: Sequence[Transaction],
    cross: bool,
) -> ShardEpochResult:
    """Schedule then execute one epoch (or run one cross slice serially)."""
    t0 = time.monotonic()
    if cross:
        t1 = t0
        outcome = executor.execute_serial(txns, epoch_id)
    else:
        plan = executor.schedule(txns, epoch_id)
        t1 = time.monotonic()
        outcome = executor.execute(plan, epoch_id)
    return ShardEpochResult(
        epoch_id=epoch_id,
        attempts=outcome.attempts,
        start_cycles=outcome.start_cycles,
        end_cycles=outcome.end_cycles,
        aborts=outcome.aborts,
        started_at=t0,
        schedule_s=t1 - t0,
        execute_s=time.monotonic() - t1,
    )


def _shard_worker_main(
    conn,
    serve: ServeConfig,
    exp: ExperimentConfig,
    shard_id: int,
    fail_after_epochs: Optional[int],
) -> None:
    """Worker body: epochs in, results out, until told to stop."""
    executor = EpochExecutor(serve, exp)
    received = 0
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return  # parent went away; nothing left to serve
        kind = msg[0]
        if kind in (_MSG_EPOCH, _MSG_CROSS):
            received += 1
            if fail_after_epochs is not None and received >= fail_after_epochs:
                # Fail-stop chaos: die on receipt, before executing, so
                # the epoch is genuinely lost and the parent must handle
                # it. os._exit skips atexit/flush like a real crash.
                os._exit(1)
            _, epoch_id, txns = msg
            conn.send(("epoch_done", run_epoch(
                executor, epoch_id, txns, cross=kind == _MSG_CROSS)))
        elif kind == _MSG_STATE:
            conn.send(("state", executor.database_state()))
        elif kind == _MSG_STOP:
            conn.send(("stopped",))
            conn.close()
            return


class ProcessShard:
    """Parent-side handle to one spawned shard worker."""

    def __init__(
        self,
        shard_id: int,
        serve: ServeConfig,
        exp: ExperimentConfig,
        fail_after_epochs: Optional[int] = None,
    ):
        self.shard_id = shard_id
        self.serve = serve
        self.exp = exp
        self.fail_after_epochs = fail_after_epochs
        self.alive = False
        #: Epochs handed to this shard / completed by it (parent-side
        #: accounting; survives the worker dying).
        self.epochs_begun = 0
        self.epochs_done = 0
        self.committed = 0
        self.aborts = 0
        self.end_cycles = 0
        self._proc = None
        self._conn = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._reader: Optional[threading.Thread] = None
        self._send_pool: Optional[ThreadPoolExecutor] = None
        self._waiting: dict[int, asyncio.Future] = {}
        self._state_fut: Optional[asyncio.Future] = None
        self._stopped_fut: Optional[asyncio.Future] = None
        self._stopping = False

    def start(self) -> None:
        """Spawn the worker (under a pinned hash seed) and begin reading."""
        from ..bench.parallel import pinned_hashseed

        self._loop = asyncio.get_running_loop()
        ctx = get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        with pinned_hashseed():
            self._proc = ctx.Process(
                target=_shard_worker_main,
                args=(child_conn, self.serve, self.exp, self.shard_id,
                      self.fail_after_epochs),
                name=f"repro-shard-{self.shard_id}",
                daemon=True,
            )
            self._proc.start()
        child_conn.close()
        self._conn = parent_conn
        self._send_pool = ThreadPoolExecutor(
            1, thread_name_prefix=f"shard{self.shard_id}-send"
        )
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-shard-{self.shard_id}-reader",
            daemon=True,
        )
        self.alive = True
        self._reader.start()

    # -- epoch submission (event-loop thread; synchronous by design) -----
    def begin_epoch(
        self, epoch_id: int, txns: Sequence[Transaction], cross: bool = False
    ) -> asyncio.Future:
        """Queue one epoch (slice) for execution; resolves to its result.

        Synchronous: by the time this returns, the epoch's position in
        the shard's FIFO is fixed, so callers control per-shard
        execution order simply by call order.
        """
        fut = self._loop.create_future()
        if not self.alive:
            fut.set_exception(ShardDeadError(
                f"shard {self.shard_id} is dead; epoch {epoch_id} not run"
            ))
            return fut
        self.epochs_begun += 1
        self._waiting[epoch_id] = fut
        self._send((_MSG_CROSS if cross else _MSG_EPOCH, epoch_id, list(txns)))
        return fut

    async def database_state(self) -> dict:
        """The shard's final ``(table, key) -> record`` map (post-drain)."""
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        self._state_fut = self._loop.create_future()
        self._send((_MSG_STATE,))
        return await self._state_fut

    async def stop(self) -> None:
        """Graceful shutdown; harmless on an already-dead shard."""
        self._stopping = True
        if self.alive:
            self._stopped_fut = self._loop.create_future()
            self._send((_MSG_STOP,))
            try:
                await asyncio.wait_for(self._stopped_fut, timeout=10.0)
            except (asyncio.TimeoutError, ShardDeadError):
                pass
        if self._proc is not None:
            await self._loop.run_in_executor(None, self._proc.join, 5.0)
            if self._proc.is_alive():
                self._proc.kill()
        if self._send_pool is not None:
            self._send_pool.shutdown(wait=False)

    # -- plumbing ---------------------------------------------------------
    def _send(self, msg: tuple) -> None:
        """Send off-loop: a pipe full of epochs must not stall serving."""
        def do_send():
            try:
                self._conn.send(msg)
            except (BrokenPipeError, OSError):
                pass  # reader thread notices the death authoritatively

        self._send_pool.submit(do_send)

    def _read_loop(self) -> None:
        try:
            while True:
                msg = self._conn.recv()
                self._loop.call_soon_threadsafe(self._on_message, msg)
        except (EOFError, OSError):
            pass
        self._loop.call_soon_threadsafe(self._on_disconnect)

    def _on_message(self, msg: tuple) -> None:
        kind = msg[0]
        if kind == "epoch_done":
            result: ShardEpochResult = msg[1]
            self.epochs_done += 1
            self.committed += len(result.attempts)
            self.aborts += result.aborts
            self.end_cycles = result.end_cycles
            fut = self._waiting.pop(result.epoch_id, None)
            if fut is not None and not fut.done():
                fut.set_result(result)
        elif kind == "state":
            if self._state_fut is not None and not self._state_fut.done():
                self._state_fut.set_result(msg[1])
        elif kind == "stopped":
            if self._stopped_fut is not None and not self._stopped_fut.done():
                self._stopped_fut.set_result(None)

    def _on_disconnect(self) -> None:
        """Pipe went down: clean stop or crash, either way nothing runs."""
        self.alive = False
        err = ShardDeadError(f"shard {self.shard_id} worker exited")
        for fut in self._waiting.values():
            if not fut.done():
                fut.set_exception(err)
        self._waiting.clear()
        for fut in (self._state_fut, self._stopped_fut):
            if fut is not None and not fut.done():
                if self._stopping:
                    fut.cancel()
                else:
                    fut.set_exception(err)


class InlineShard:
    """In-process shard: same interface, executor behind one thread."""

    def __init__(
        self,
        shard_id: int,
        serve: ServeConfig,
        exp: ExperimentConfig,
        fail_after_epochs: Optional[int] = None,
        tracer=None,
    ):
        self.shard_id = shard_id
        self.fail_after_epochs = fail_after_epochs
        self.alive = False
        self.epochs_begun = 0
        self.epochs_done = 0
        self.committed = 0
        self.aborts = 0
        self.end_cycles = 0
        #: Built up front so its adaptive policy can serve admission.
        self.executor = EpochExecutor(serve, exp, tracer=tracer)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._received = 0

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            1, thread_name_prefix=f"shard{self.shard_id}"
        )
        self.alive = True

    def begin_epoch(
        self, epoch_id: int, txns: Sequence[Transaction], cross: bool = False
    ) -> asyncio.Future:
        fut = self._loop.create_future()
        if not self.alive:
            fut.set_exception(ShardDeadError(
                f"shard {self.shard_id} is dead; epoch {epoch_id} not run"
            ))
            return fut
        self._received += 1
        if (self.fail_after_epochs is not None
                and self._received >= self.fail_after_epochs):
            # Emulate the worker dying on receipt: this epoch and all
            # later ones fail, exactly like the process variant.
            self.alive = False
            fut.set_exception(ShardDeadError(
                f"shard {self.shard_id} worker exited"
            ))
            return fut
        self.epochs_begun += 1

        def done(inner):
            try:
                result = inner.result()
            except BaseException as e:  # surface executor bugs, don't hang
                if not fut.done():
                    fut.set_exception(e)
                return
            self.epochs_done += 1
            self.committed += len(result.attempts)
            self.aborts += result.aborts
            self.end_cycles = result.end_cycles
            if not fut.done():
                fut.set_result(result)

        inner = self._pool.submit(
            run_epoch, self.executor, epoch_id, list(txns), cross)
        inner.add_done_callback(
            lambda f: self._loop.call_soon_threadsafe(done, f)
        )
        return fut

    async def database_state(self) -> dict:
        if not self.alive:
            raise ShardDeadError(f"shard {self.shard_id} is dead")
        return await self._loop.run_in_executor(
            self._pool, self.executor.database_state
        )

    async def stop(self) -> None:
        if self._pool is not None:
            await self._loop.run_in_executor(self._pool, lambda: None)
            self._pool.shutdown(wait=True)
