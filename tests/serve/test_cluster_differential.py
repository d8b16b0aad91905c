"""Differential battery: ``--shards N`` vs ``--shards 1``, live vs replay.

Three equivalence legs (docs/sharding.md):

* **replay topology differential** — with fixed tids, single-shard-only
  traffic lands on a raw final state (values, versions, last-writer
  tids) identical between a 3-shard cluster replay and a single-engine
  replay, even for multi-writer keys: epochs are tid-contiguous in both
  topologies, so every key's last writer is its max-tid writer either
  way.
* **live topology differential** — a live cluster and a live single
  engine serving the same single-writer-per-key traffic commit the same
  request set with the same per-txn statuses and the same state digest.
* **cross-shard replay determinism** — a live run mixing YCSB integer
  keys with TPC-C composite (tuple) keys and cross-shard transactions
  replays from its recorded epochs onto bit-identical per-shard states,
  and two replays of the same records are bit-identical to each other.
"""

import asyncio

import pytest
from cluster_util import make_cross_txns, make_single_shard_txns

from repro.bench.workloads import TpccGenerator, YcsbGenerator
from repro.common.config import (
    ExperimentConfig,
    PredictConfig,
    ServeConfig,
    SimConfig,
    TpccConfig,
    YcsbConfig,
)
from repro.serve import (
    STATUS_COMMITTED,
    ServeServer,
    ShardRouter,
    replay_cluster,
    replay_epochs,
    run_loadgen,
    state_digest,
    txn_from_wire,
    txn_to_wire,
)

EXP = ExperimentConfig(sim=SimConfig(num_threads=4), seed=0)


def serve_cfg(shards, **kw):
    base = dict(port=0, system="tskd-0", epoch_max_txns=16,
                epoch_max_ms=50.0, queue_limit=20_000,
                record_epoch_tids=True)
    base.update(kw)
    return ServeConfig(shards=shards, **base)


class TestSingleShardTopologyDifferential:
    def test_replay_shards3_state_identical_to_shards1(self):
        """Same txns, same tids: 3-shard state == 1-engine state."""
        txns = make_single_shard_txns(240, shards=3, single_writer=False)
        router = ShardRouter(3)

        # Cluster leg: each shard consumes its tid-ordered traffic in
        # chunks of 16 — exactly what per-shard batchers would close.
        per_shard = {s: [] for s in range(3)}
        for t in txns:
            per_shard[router.classify(t).home].append(t)
        records = []
        eid = 0
        for s in range(3):
            mine = per_shard[s]
            for i in range(0, len(mine), 16):
                records.append((eid, s, False,
                                [t.tid for t in mine[i:i + 16]]))
                eid += 1
        _, merged = replay_cluster(serve_cfg(3), EXP, records, txns)

        # Single-engine leg: the same admission stream in global chunks.
        epochs = [txns[i:i + 16] for i in range(0, len(txns), 16)]
        executor, outcomes = replay_epochs(serve_cfg(1), EXP, epochs)

        assert merged == executor.database_state()
        assert {tid for o in outcomes for tid in o.attempts} == \
            {t.tid for t in txns}

    def test_live_shards3_matches_live_shards1(self):
        """Live vs live: commit set, statuses, digest all identical."""
        async def run():
            txns = make_single_shard_txns(240, shards=3)

            cluster = ServeServer(serve_cfg(3), EXP, shard_mode="inline")
            await cluster.start()
            rep_c = await run_loadgen("127.0.0.1", cluster.port, txns,
                                      clients=8, mode="closed", seed=0,
                                      drain=True)
            await cluster.stop()

            single = ServeServer(serve_cfg(1), EXP)
            await single.start()
            rep_s = await run_loadgen("127.0.0.1", single.port, txns,
                                      clients=8, mode="closed", seed=0,
                                      drain=True)
            await single.stop()

            for rep in (rep_c, rep_s):
                assert rep.errors == 0
                assert all(r.status == STATUS_COMMITTED for r in rep.records)
            assert ({r.req_id for r in rep_c.records}
                    == {r.req_id for r in rep_s.records})
            assert (rep_c.drained["state_digest"]
                    == rep_s.drained["state_digest"])
        asyncio.run(run())


def mixed_cross_workload(n_ycsb=120, n_tpcc=60):
    """YCSB integer keys + TPC-C composite keys, cross-shard included."""
    ycsb = YcsbGenerator(
        YcsbConfig(num_records=5_000, theta=0.6, ops_per_txn=4), seed=11
    ).make_workload(n_ycsb)
    tpcc = TpccGenerator(
        TpccConfig(num_warehouses=12, cross_pct=0.5), seed=12
    ).make_workload(n_tpcc)
    return list(ycsb) + list(tpcc)


class TestCrossMixReplayDeterminism:
    def test_live_cross_mix_replays_bit_identically_twice(self):
        async def run():
            serve = serve_cfg(3)
            cluster = ServeServer(serve, EXP, shard_mode="inline")
            await cluster.start()
            txns = mixed_cross_workload()
            report = await run_loadgen("127.0.0.1", cluster.port, txns,
                                       clients=8, mode="closed", seed=0,
                                       drain=True)
            assert report.errors == 0
            assert report.committed == len(txns)
            records = list(cluster.epoch_records)
            live_states = dict(cluster._shard_states)
            await cluster.stop()

            # The run genuinely exercised the coordinator.
            assert any(cross for _, _, cross, _ in records)

            by_tid = [
                txn_from_wire(txn_to_wire(txns[r.req_id]), tid=r.tid)
                for r in report.records
            ]

            # Leg 1: replay reconstructs the live per-shard states.
            ex1, merged1 = replay_cluster(serve, EXP, records, by_tid)
            for s, state in live_states.items():
                assert ex1[s].database_state() == state

            # Leg 2: replay is bit-identical run to run — same states,
            # same per-shard virtual clocks.
            ex2, merged2 = replay_cluster(serve, EXP, records, by_tid)
            assert merged1 == merged2
            for s in ex1:
                assert ex1[s].database_state() == ex2[s].database_state()
                assert ex1[s].clock == ex2[s].clock
        asyncio.run(run())

    def test_synthetic_cross_epochs_replay_deterministically(self):
        """Pure-replay leg: no sockets, just recorded cross epochs."""
        txns = make_cross_txns(48, shards=3, seed=5)
        records = [
            (i, None, True, [t.tid for t in txns[i * 8:(i + 1) * 8]])
            for i in range(6)
        ]
        serve = serve_cfg(3)
        ex1, merged1 = replay_cluster(serve, EXP, records, txns)
        ex2, merged2 = replay_cluster(serve, EXP, records, txns)
        assert merged1 == merged2
        assert merged1  # the cross path actually wrote something
        for s in ex1:
            assert ex1[s].clock == ex2[s].clock


def pin_workload(n=240, seed=21):
    """Contended YCSB traffic: multi-writer keys, aborts and deferrals."""
    return list(YcsbGenerator(
        YcsbConfig(num_records=400, theta=0.9, ops_per_txn=6), seed=seed
    ).make_workload(n))


class TestSingleShardServerPin:
    """A ``--shards 1`` server is bit-identical to its epochs' replay.

    The live run records its epoch compositions; replaying them batch
    style through a fresh executor must reproduce the drained state
    digest and virtual clock, and for an adaptive server the final
    predictor state the artifact reports.
    """

    SYSTEMS = {
        "tskd-s": None,
        "tskd-cc": None,
        "tskd-0+predict": PredictConfig(hot_threshold=2.0, admission=False),
    }

    @pytest.mark.parametrize("name", list(SYSTEMS))
    def test_live_single_shard_matches_replay(self, name):
        system = name.split("+")[0]
        exp = ExperimentConfig(sim=SimConfig(num_threads=4), seed=0,
                               predict=self.SYSTEMS[name])
        serve = serve_cfg(1, system=system)
        txns = pin_workload()

        async def run():
            server = ServeServer(serve, exp)
            await server.start()
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=8, mode="closed", seed=0,
                                       drain=True)
            artifact = server.artifact()
            await server.stop()
            return report, artifact

        report, artifact = asyncio.run(run())
        assert report.errors == 0
        assert report.committed == len(txns)
        by_tid = {
            r.tid: txn_from_wire(txn_to_wire(txns[r.req_id]), tid=r.tid)
            for r in report.records
        }
        spans = sorted(artifact["epochs"], key=lambda e: e["epoch"])
        assert [e["epoch"] for e in spans] == list(range(len(spans)))
        epochs = [[by_tid[t] for t in e["tids"]] for e in spans]
        replayed, outcomes = replay_epochs(serve, exp, epochs)

        digest = state_digest([r.req_id for r in report.records],
                              replayed.database_state(),
                              {r.tid: r.req_id for r in report.records})
        assert report.drained["state_digest"] == digest
        assert artifact["summary"]["end_cycles"] == replayed.clock
        assert sum(o.committed for o in outcomes) == len(txns)
        if exp.predict is None:
            assert "predict" not in artifact
            return
        live, ref = artifact["predict"], replayed.policy.snapshot()
        for key in ("knobs", "retunes", "steer_reorders", "defer_boosts",
                    "epoch", "commits_observed"):
            assert live[key] == ref[key], key
