"""Epoch executor determinism, replay equivalence, one-shard stage order."""

import asyncio
import time

import pytest

from repro.bench.workloads import YcsbGenerator
from repro.common.config import (
    ExperimentConfig,
    ServeConfig,
    SimConfig,
    YcsbConfig,
)
from repro.serve import (
    EpochExecutor,
    ServeServer,
    Submission,
    make_servable_system,
    replay_epochs,
)

EXP = ExperimentConfig(sim=SimConfig(num_threads=4), seed=0)


def make_epochs(n_epochs=6, per_epoch=40, seed=2):
    gen = YcsbGenerator(YcsbConfig(num_records=2_000, theta=0.9,
                                   ops_per_txn=4), seed=seed)
    txns = list(gen.make_workload(n_epochs * per_epoch))
    return [txns[i * per_epoch:(i + 1) * per_epoch] for i in range(n_epochs)]


class TestServableSystems:
    def test_dbcc_and_tskd_resolve(self):
        for spec in ("dbcc", "tskd-0", "tskd-cc", "tskd-s"):
            tskd = make_servable_system(spec)
            assert tskd.queue_execution == "cc"

    def test_bare_partitioner_is_rejected(self):
        with pytest.raises(ValueError):
            make_servable_system("strife")

    def test_enforced_variant_is_rejected(self):
        with pytest.raises(ValueError):
            make_servable_system("tskd-s!")


class TestExecutorDeterminism:
    def test_same_epochs_same_state(self):
        epochs = make_epochs()
        serve = ServeConfig(system="tskd-0")
        ex1, out1 = replay_epochs(serve, EXP, epochs)
        ex2, out2 = replay_epochs(serve, EXP, epochs)
        assert ex1.database_state() == ex2.database_state()
        assert ex1.clock == ex2.clock
        assert [o.attempts for o in out1] == [o.attempts for o in out2]

    def test_every_admitted_txn_commits_once(self):
        epochs = make_epochs()
        serve = ServeConfig(system="tskd-0")
        _, outcomes = replay_epochs(serve, EXP, epochs)
        committed = [tid for o in outcomes for tid in o.attempts]
        assert sorted(committed) == sorted(t.tid for e in epochs for t in e)

    def test_clock_advances_across_epochs(self):
        epochs = make_epochs(n_epochs=3)
        _, outcomes = replay_epochs(ServeConfig(system="dbcc"), EXP, epochs)
        for prev, cur in zip(outcomes, outcomes[1:]):
            assert cur.start_cycles == prev.end_cycles
            assert cur.end_cycles > cur.start_cycles

    def test_store_persists_across_epochs(self):
        # A later epoch must see versions written by an earlier one:
        # total record count only grows, and final state reflects all.
        epochs = make_epochs(n_epochs=4)
        executor = EpochExecutor(ServeConfig(system="dbcc"), EXP)
        sizes = []
        for i, txns in enumerate(epochs):
            executor.execute(executor.schedule(txns, i), i)
            sizes.append(len(executor.database_state()))
        assert sizes == sorted(sizes)
        assert sizes[-1] > 0


class TestLeastLoadedAssignment:
    def test_rebalances_round_robin_phase(self):
        epochs = make_epochs(n_epochs=1, per_epoch=30)
        rr = EpochExecutor(
            ServeConfig(system="dbcc", assignment="round_robin"), EXP)
        ll = EpochExecutor(
            ServeConfig(system="dbcc", assignment="least_loaded"), EXP)
        plan_rr = rr.schedule(epochs[0], 0)
        plan_ll = ll.schedule(epochs[0], 0)
        flat = lambda plan: sorted(
            t.tid for phase in plan.phases for buf in phase for t in buf)
        assert flat(plan_rr) == flat(plan_ll)  # same txns either way
        # Least-loaded packs by estimated cost: per-buffer cost spread
        # must be no worse than round-robin's.
        def spread(executor, plan):
            loads = [sum(executor.cost.time(t) for t in buf)
                     for buf in plan.phases[0]]
            return max(loads) - min(loads)
        assert spread(ll, plan_ll) <= spread(rr, plan_rr)

    def test_least_loaded_keeps_rc_free_queues_intact(self):
        epochs = make_epochs(n_epochs=1, per_epoch=40)
        base = EpochExecutor(
            ServeConfig(system="tskd-0", assignment="round_robin"), EXP)
        ll = EpochExecutor(
            ServeConfig(system="tskd-0", assignment="least_loaded"), EXP)
        p1 = base.schedule(epochs[0], 0)
        p2 = ll.schedule(epochs[0], 0)
        # Phase 0 is the scheduled RC-free queues: never rebalanced.
        assert [[t.tid for t in buf] for buf in p1.phases[0]] == \
               [[t.tid for t in buf] for buf in p2.phases[0]]


async def serve_direct(serve, txns):
    """Route submissions straight into a one-shard server (no sockets).

    Returns the server, drained, and one ``(tid, future)`` per txn.
    """
    server = ServeServer(serve, EXP)
    await server.start()
    loop = asyncio.get_running_loop()
    futures = []
    for i, t in enumerate(txns):
        fut = loop.create_future()
        futures.append((t.tid, fut))
        server._route(Submission(tid=t.tid, req_id=i, txn=t,
                                 submitted_at=time.monotonic(), future=fut))
    await server.stop()
    return server, futures


class TestPipelineOverlap:
    """One shard schedules then executes each epoch, in epoch-id order."""

    def run_pipeline(self, n_epochs=5, per_epoch=150):
        serve = ServeConfig(system="tskd-0", epoch_max_txns=per_epoch,
                            epoch_max_ms=60_000.0)
        gen = YcsbGenerator(YcsbConfig(num_records=2_000, theta=0.9,
                                       ops_per_txn=6), seed=4)
        txns = list(gen.make_workload(n_epochs * per_epoch))
        server, _ = asyncio.run(serve_direct(serve, txns))
        return server.spans

    def test_epochs_execute_in_order(self):
        spans = self.run_pipeline()
        assert [s.epoch_id for s in spans] == list(range(len(spans)))
        for prev, cur in zip(spans, spans[1:]):
            assert cur.exec_start >= prev.exec_end

    def test_stage_spans_are_well_formed(self):
        for s in self.run_pipeline(n_epochs=3):
            assert s.sched_start <= s.sched_end <= s.exec_start <= s.exec_end
            # Both stages are measured in the shard, not inferred.
            assert s.sched_end > s.sched_start
            assert s.exec_end > s.exec_start
            assert s.committed == s.size
            assert s.tids is None  # not recorded unless asked


class TestPipelineResolution:
    def test_futures_resolve_with_outcomes(self):
        serve = ServeConfig(system="dbcc", epoch_max_txns=10,
                            epoch_max_ms=60_000.0, record_epoch_tids=True)
        gen = YcsbGenerator(YcsbConfig(num_records=500, theta=0.8,
                                       ops_per_txn=4), seed=9)
        server, futures = asyncio.run(
            serve_direct(serve, list(gen.make_workload(30))))
        for tid, fut in futures:
            outcome = fut.result()
            assert outcome.tid == tid
            assert outcome.attempts >= 1
            assert outcome.queue_s >= 0
            assert outcome.schedule_s > 0
            assert outcome.execute_s > 0
        assert [s.tids is not None for s in server.spans] == \
               [True] * len(server.spans)


class TestExecutorFailure:
    def test_executor_error_surfaces_at_drain(self):
        async def run():
            serve = ServeConfig(system="dbcc", epoch_max_txns=10,
                                epoch_max_ms=60_000.0)
            server = ServeServer(serve, EXP)
            executor = server.shards[0].executor
            real = executor.execute

            def execute(plan, epoch_id, *args):
                if epoch_id == 1:
                    raise RuntimeError("engine bug")
                return real(plan, epoch_id, *args)

            executor.execute = execute
            await server.start()
            gen = YcsbGenerator(YcsbConfig(num_records=500, theta=0.8,
                                           ops_per_txn=4), seed=9)
            for i, t in enumerate(gen.make_workload(30)):
                server._route(Submission(tid=t.tid, req_id=i, txn=t,
                                         submitted_at=time.monotonic()))
            await asyncio.sleep(0.2)  # epoch 1 fails long before drain
            try:
                with pytest.raises(RuntimeError, match="engine bug"):
                    await server.drain()
            finally:
                server._server.close()
                await server._server.wait_closed()
            return server

        server = asyncio.run(run())
        # The epochs either side of the failed one still ran.
        assert {s.epoch_id for s in server.spans} == {0, 2}


class TestMemoryFlat:
    """A serving executor keeps nothing per answered transaction.

    Memos and aggregates that once grew by one entry per transaction
    (TsDEFER's probe-visible write sets and defer counts, the history
    cost model's observation lists) must stay bounded: after warm-up,
    traced heap growth per served transaction stays under a few bytes.
    """

    EPOCH = 256
    WARM = 3
    MEASURED = 6
    BOUND_BYTES_PER_TXN = 64

    @pytest.mark.parametrize("system", ["tskd-cc", "tskd-0"])
    def test_retained_growth_per_txn_is_bounded(self, system):
        import gc
        import tracemalloc

        # A key space small enough that warm-up creates every row, so
        # database growth is over before measuring starts.
        gen = YcsbGenerator(YcsbConfig(num_records=256, theta=0.6,
                                       ops_per_txn=8), seed=4)
        n_epochs = self.WARM + self.MEASURED
        txns = list(gen.make_workload(n_epochs * self.EPOCH))
        epochs = [txns[i * self.EPOCH:(i + 1) * self.EPOCH]
                  for i in range(n_epochs)]
        del txns
        executor = EpochExecutor(ServeConfig(system=system), EXP)

        def serve(epoch_id):
            # Drop the caller's reference, as a server does once answered.
            batch, epochs[epoch_id] = epochs[epoch_id], None
            executor.execute(executor.schedule(batch, epoch_id), epoch_id)

        for epoch_id in range(self.WARM):
            serve(epoch_id)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for epoch_id in range(self.WARM, n_epochs):
                serve(epoch_id)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_txn = grown / (self.MEASURED * self.EPOCH)
        assert per_txn < self.BOUND_BYTES_PER_TXN, (
            f"{system}: {per_txn:.1f} B retained per served transaction")
