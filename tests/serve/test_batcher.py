"""Epoch batching: size/deadline closing, flush, shutdown."""

import asyncio

import pytest

from repro.serve import (
    CLOSE_DEADLINE,
    CLOSE_DRAIN,
    CLOSE_SIZE,
    EpochBatcher,
    Submission,
)
from repro.txn import make_transaction, read


def sub(i):
    return Submission(tid=i, req_id=i,
                      txn=make_transaction(i, [read("x", i)]),
                      submitted_at=0.0)


def make_batcher(max_txns, max_ms):
    """One batcher with its own sink and its own id counter from 0."""
    sink = asyncio.Queue()
    counter = iter(range(10_000))
    batcher = EpochBatcher(max_txns, max_ms, sink=sink,
                           id_source=lambda: next(counter))
    return sink, batcher


class TestSizeClose:
    def test_closes_at_max_txns(self):
        async def run():
            sink, batcher = make_batcher(max_txns=3, max_ms=10_000.0)
            for i in range(7):
                batcher.put(sub(i))
            e0 = await sink.get()
            e1 = await sink.get()
            assert (e0.epoch_id, e0.size, e0.reason) == (0, 3, CLOSE_SIZE)
            assert (e1.epoch_id, e1.size, e1.reason) == (1, 3, CLOSE_SIZE)
            assert batcher.pending == 1  # the seventh waits for more
        asyncio.run(run())

    def test_epoch_ids_are_sequential(self):
        async def run():
            sink, batcher = make_batcher(max_txns=1, max_ms=10_000.0)
            for i in range(5):
                batcher.put(sub(i))
            ids = [(await sink.get()).epoch_id for _ in range(5)]
            assert ids == [0, 1, 2, 3, 4]
        asyncio.run(run())


class TestDeadlineClose:
    def test_partial_epoch_closes_on_deadline(self):
        async def run():
            sink, batcher = make_batcher(max_txns=100, max_ms=20.0)
            batcher.put(sub(0))
            batcher.put(sub(1))
            epoch = await asyncio.wait_for(sink.get(), timeout=5.0)
            assert epoch.size == 2
            assert epoch.reason == CLOSE_DEADLINE
        asyncio.run(run())

    def test_stale_timer_does_not_close_next_epoch(self):
        async def run():
            sink, batcher = make_batcher(max_txns=2, max_ms=30.0)
            batcher.put(sub(0))
            batcher.put(sub(1))  # closes epoch 0 by size; timer now stale
            epoch = await sink.get()
            assert epoch.reason == CLOSE_SIZE
            batcher.put(sub(2))  # opens epoch 1
            # Sleep past epoch 0's (cancelled/stale) deadline but short of
            # epoch 1's own: epoch 1 must still be open.
            await asyncio.sleep(0.01)
            assert batcher.pending == 1
            epoch1 = await asyncio.wait_for(sink.get(), timeout=5.0)
            assert epoch1.reason == CLOSE_DEADLINE
            assert epoch1.size == 1
        asyncio.run(run())

    def test_idle_batcher_closes_nothing(self):
        async def run():
            _, batcher = make_batcher(max_txns=4, max_ms=5.0)
            await asyncio.sleep(0.03)  # several deadline spans, no input
            assert batcher.epochs_closed == 0
        asyncio.run(run())


class TestDrain:
    def test_flush_closes_partial_epoch(self):
        async def run():
            sink, batcher = make_batcher(max_txns=100, max_ms=10_000.0)
            batcher.put(sub(0))
            batcher.flush()
            epoch = await sink.get()
            assert epoch.size == 1
            assert epoch.reason == CLOSE_DRAIN
        asyncio.run(run())

    def test_shutdown_flushes_then_signals_end(self):
        async def run():
            sink, batcher = make_batcher(max_txns=100, max_ms=10_000.0)
            batcher.put(sub(0))
            batcher.shutdown()
            assert (await sink.get()).size == 1
            assert await sink.get() is None
            batcher.shutdown()  # idempotent: one end-of-stream only
            assert sink.empty()
            with pytest.raises(RuntimeError):
                batcher.put(sub(1))
        asyncio.run(run())

    def test_close_reasons_are_tallied(self):
        async def run():
            _, batcher = make_batcher(max_txns=2, max_ms=10_000.0)
            for i in range(4):
                batcher.put(sub(i))
            batcher.put(sub(4))
            batcher.flush()
            assert batcher.closed_by_reason == {CLOSE_SIZE: 2, CLOSE_DRAIN: 1}
        asyncio.run(run())


class TestValidation:
    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            make_batcher(max_txns=0, max_ms=10.0)
        with pytest.raises(ValueError):
            make_batcher(max_txns=1, max_ms=0.0)


class TestClusterTopology:
    """N batchers sharing one id counter and one sink (the cluster shape)."""

    def make_fleet(self, n, max_txns=2, max_ms=10_000.0):
        sink = asyncio.Queue()
        counter = iter(range(10_000))
        draw = lambda: next(counter)  # noqa: E731
        batchers = [
            EpochBatcher(max_txns, max_ms, sink=sink, id_source=draw,
                         meta={"shard": s})
            for s in range(n)
        ]
        return sink, batchers

    def test_shared_ids_are_unique_and_ordered_by_close(self):
        async def run():
            sink, batchers = self.make_fleet(3)
            # Interleave closes across batchers: 1, 0, 2, 0.
            for b in (1, 1, 0, 0, 2, 2, 0, 0):
                batchers[b].put(sub(b))
            epochs = [sink.get_nowait() for _ in range(4)]
            assert [e.epoch_id for e in epochs] == [0, 1, 2, 3]
            assert [e.meta["shard"] for e in epochs] == [1, 0, 2, 0]
            # Sink FIFO order == id order: the dispatcher's invariant.
            assert sink.qsize() == 0
        asyncio.run(run())

    def test_idle_batcher_arms_no_timer(self):
        async def run():
            sink, batchers = self.make_fleet(3, max_txns=100, max_ms=5.0)
            batchers[1].put(sub(0))
            assert batchers[1].timer_armed
            assert not batchers[0].timer_armed
            assert not batchers[2].timer_armed
            epoch = await asyncio.wait_for(sink.get(), timeout=5.0)
            assert epoch.meta == {"shard": 1}
            assert epoch.reason == CLOSE_DEADLINE
            # The deadline that fired disarmed itself; the idle
            # batchers never armed and never closed anything.
            assert not any(b.timer_armed for b in batchers)
            assert [b.epochs_closed for b in batchers] == [0, 1, 0]
        asyncio.run(run())

    def test_one_deadline_never_closes_another_batcher(self):
        async def run():
            sink, batchers = self.make_fleet(2, max_txns=100, max_ms=10.0)
            batchers[0].put(sub(0))
            await asyncio.sleep(0.002)
            # Batcher 1 opens later; batcher 0's earlier deadline must
            # close only batcher 0's epoch.
            batchers[1].put(sub(1))
            first = await asyncio.wait_for(sink.get(), timeout=5.0)
            assert first.meta == {"shard": 0}
            assert batchers[1].pending == 1
            second = await asyncio.wait_for(sink.get(), timeout=5.0)
            assert second.meta == {"shard": 1}
            assert (first.epoch_id, second.epoch_id) == (0, 1)
        asyncio.run(run())

    def test_size_close_cancels_the_deadline_timer(self):
        async def run():
            sink, batchers = self.make_fleet(1, max_txns=2)
            batchers[0].put(sub(0))
            assert batchers[0].timer_armed
            batchers[0].put(sub(1))  # size close
            assert not batchers[0].timer_armed
        asyncio.run(run())

    def test_fleet_shutdown_sends_one_sentinel_each(self):
        async def run():
            sink, batchers = self.make_fleet(3, max_txns=100, max_ms=5.0)
            batchers[0].put(sub(0))  # partial epoch + armed timer
            for b in batchers:
                b.shutdown()
            assert not any(b.timer_armed for b in batchers)
            items = [sink.get_nowait() for _ in range(4)]
            epochs = [e for e in items if e is not None]
            assert len(epochs) == 1
            assert epochs[0].reason == CLOSE_DRAIN
            assert items.count(None) == 3  # one end-of-stream per batcher
            # A cancelled deadline straggler must find nothing to close.
            await asyncio.sleep(0.02)
            assert sink.qsize() == 0
        asyncio.run(run())

    def test_local_ids_stay_per_batcher_without_id_source(self):
        async def run():
            sink_a, a = make_batcher(max_txns=1, max_ms=10_000.0)
            sink_b, b = make_batcher(max_txns=1, max_ms=10_000.0)
            a.put(sub(0))
            b.put(sub(1))
            a.put(sub(2))
            assert (await sink_a.get()).epoch_id == 0
            assert (await sink_b.get()).epoch_id == 0
            assert (await sink_a.get()).epoch_id == 1
        asyncio.run(run())
