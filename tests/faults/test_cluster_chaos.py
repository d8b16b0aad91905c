"""Chaos: fail-stop a serving-cluster shard mid-run (ShardFailStop).

The cluster invariants under a dead shard extend the single-engine
fault story: **no response is ever lost or duplicated** — every
submitted transaction gets exactly one answer, where the answer for a
transaction touching the dead shard is an *explicit backpressure
reject*, never silence; surviving shards keep committing; and drain
still writes a schema-valid artifact whose ``shards`` section records
who died.

Fate is exact for single-shard transactions (home dead => rejected,
home alive => committed).  Cross-shard commit is epoch-atomic, so a
cross transaction avoiding the dead shard can still be rejected if it
shares a cross epoch with one that does — the assertions below encode
exactly that contract.
"""

import asyncio
import sys
from pathlib import Path

import pytest

from repro.common.config import (
    ConfigError,
    ExperimentConfig,
    ServeConfig,
    SimConfig,
)
from repro.faults import ShardFailStop
from repro.obs import validate_serve_artifact
from repro.serve import (
    STATUS_COMMITTED,
    ServeServer,
    ShardRouter,
    run_loadgen,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "serve"))
from cluster_util import make_cross_txns, make_single_shard_txns  # noqa: E402

EXP = ExperimentConfig(sim=SimConfig(num_threads=4), seed=0)
DEAD = 1


def chaos_cfg(**kw):
    base = dict(port=0, system="tskd-0", epoch_max_txns=8,
                epoch_max_ms=30.0, queue_limit=20_000,
                record_epoch_tids=True)
    base.update(kw)
    return ServeConfig(shards=3, **base)


def split_by_fate(txns, dead=DEAD, shards=3):
    """(must_commit, must_reject, may_reject) request-id sets."""
    router = ShardRouter(shards)
    fine, doomed, epoch_risk = set(), set(), set()
    for i, txn in enumerate(txns):
        decision = router.classify(txn)
        if dead in decision.shards:
            doomed.add(i)
        elif decision.cross:
            # Never touches the dead shard itself, but cross commit is
            # epoch-atomic: sharing an epoch with a doomed txn sinks it.
            epoch_risk.add(i)
        else:
            fine.add(i)
    return fine, doomed, epoch_risk


async def run_chaos(shard_mode, txns, after_epochs=1):
    server = ServeServer(
        chaos_cfg(), EXP, shard_mode=shard_mode,
        shard_faults=[ShardFailStop(shard=DEAD, after_epochs=after_epochs)],
    )
    await server.start()
    # max_retries=0: each transaction is submitted exactly once, so the
    # report is a per-request census of the server's answers.
    report = await run_loadgen("127.0.0.1", server.port, txns,
                               clients=6, mode="closed", seed=0,
                               max_retries=0, drain=True)
    art = server.artifact()
    await server.stop()
    return report, art


def assert_chaos_invariants(report, art, txns):
    fine, doomed, epoch_risk = split_by_fate(txns)
    n = len(txns)

    # Exactly one response per submission: every request id answered
    # once, committed or explicitly rejected — nothing lost, nothing
    # doubled, nothing hanging.
    assert sorted(r.req_id for r in report.records) == list(range(n))
    committed = {r.req_id for r in report.records
                 if r.status == STATUS_COMMITTED}
    rejected = set(range(n)) - committed
    # Every non-committed answer was an explicit reject frame.
    assert all(r.rejects == 1 for r in report.records
               if r.req_id in rejected)

    # Fate: everything touching the dead shard is rejected, every
    # single-shard transaction on a surviving shard commits, and the
    # only discretionary band is cross txns sharing epochs with doomed
    # ones.
    assert doomed <= rejected
    assert fine <= committed
    assert rejected <= doomed | epoch_risk
    assert committed  # survivors really kept serving

    # Drain still produces a schema-valid cluster artifact that
    # records the death.
    validate_serve_artifact(art)
    alive = {e["shard"]: e["alive"] for e in art["shards"]["per_shard"]}
    assert alive[DEAD] is False
    assert all(alive[s] for s in alive if s != DEAD)
    assert art["summary"]["committed"] == len(committed)
    assert art["summary"]["rejected"] == len(rejected)
    assert sum(e["committed"] for e in art["epochs"]) == len(committed)
    return committed, rejected


class TestInlineChaos:
    def test_fail_stop_rejects_dead_shard_commits_survivors(self):
        async def run():
            txns = (make_single_shard_txns(120, shards=3)
                    + make_cross_txns(36, shards=3))
            report, art = await run_chaos("inline", txns)
            _, rejected = assert_chaos_invariants(report, art, txns)
            # The mix really had cross-shard casualties.
            _, doomed, _ = split_by_fate(txns)
            cross_ids = set(range(120, 156))
            assert cross_ids & doomed <= rejected
            assert cross_ids & doomed
        asyncio.run(run())

    def test_fail_after_second_epoch_commits_first(self):
        """after_epochs=2: the dead shard's first epoch commits, the
        second (and everything after) is rejected."""
        async def run():
            # One closed-loop client: epochs close by deadline with one
            # transaction each, so the shard's epoch sequence is its
            # request sequence and the casualty boundary is exact.
            txns = make_single_shard_txns(36, shards=3)
            server = ServeServer(
                chaos_cfg(epoch_max_ms=5.0), EXP, shard_mode="inline",
                shard_faults=[ShardFailStop(shard=DEAD, after_epochs=2)],
            )
            await server.start()
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=1, mode="closed", seed=0,
                                       max_retries=0, drain=True)
            art = server.artifact()
            await server.stop()

            fine, doomed, _ = split_by_fate(txns)
            committed = {r.req_id for r in report.records
                         if r.status == STATUS_COMMITTED}
            assert committed == fine | {min(doomed)}
            validate_serve_artifact(art)
            dead_entry = art["shards"]["per_shard"][DEAD]
            assert dead_entry["alive"] is False
            assert dead_entry["epochs"] == 1
            assert dead_entry["committed"] == 1
        asyncio.run(run())


class TestProcessChaos:
    def test_fail_stop_worker_process(self):
        """The real thing: the worker hard-exits (os._exit) on its first
        epoch; the parent must notice and answer for it."""
        async def run():
            txns = make_single_shard_txns(90, shards=3)
            report, art = await run_chaos("process", txns)
            assert_chaos_invariants(report, art, txns)
        asyncio.run(run())


class TestShardFailStopSpec:
    def test_negative_shard_rejected(self):
        with pytest.raises(ConfigError):
            ShardFailStop(shard=-1)

    def test_zero_after_epochs_rejected(self):
        with pytest.raises(ConfigError):
            ShardFailStop(shard=0, after_epochs=0)
