"""Sharded-cluster end-to-end: sockets, shard routing, drain, artifact.

The acceptance contract: a 32-client socket run against ``--shards 3``
(real worker processes) loses no response, duplicates no response, and
— for single-shard-only, single-writer-per-key traffic — commits the
same set and lands on the same state digest as the single-engine
server, artifact digests included.
"""

import asyncio
import json

from repro.common.config import (
    ConfigError,
    ExperimentConfig,
    PredictConfig,
    ServeConfig,
    SimConfig,
)
from repro.faults import ShardFailStop
from repro.obs import load_artifact, validate_serve_artifact
from repro.serve import (
    STATUS_COMMITTED,
    RouteDecision,
    ServeServer,
    ShardRouter,
    run_loadgen,
    txn_to_wire,
)
from repro.serve.protocol import SERVER_FRAMES, decode_frame, encode_frame

import pytest
from cluster_util import make_cross_txns, make_single_shard_txns

EXP = ExperimentConfig(sim=SimConfig(num_threads=4), seed=0)


def cluster_cfg(shards=3, **kw):
    base = dict(port=0, system="tskd-0", epoch_max_txns=16,
                epoch_max_ms=50.0, queue_limit=20_000,
                record_epoch_tids=True)
    base.update(kw)
    return ServeConfig(shards=shards, **base)


async def start_cluster(serve, exp=EXP, **kw):
    kw.setdefault("shard_mode", "inline")
    server = ServeServer(serve, exp, **kw)
    await server.start()
    return server


class TestClusterE2E:
    def test_32_clients_process_shards_bit_identical_to_single_engine(self):
        """The acceptance run: 32 clients vs 3 worker processes."""
        async def run():
            txns = make_single_shard_txns(600, shards=3)

            cluster = await start_cluster(cluster_cfg(), shard_mode="process")
            rep_c = await run_loadgen("127.0.0.1", cluster.port, txns,
                                      clients=32, mode="open",
                                      offered_tps=25_000.0, seed=0,
                                      drain=True)
            art_c = cluster.artifact()
            await cluster.stop()

            # Zero lost, zero duplicated: every request id answered
            # exactly once, every server tid unique, all committed.
            assert rep_c.errors == 0
            assert rep_c.committed == 600
            assert sorted(r.req_id for r in rep_c.records) == list(range(600))
            assert len({r.tid for r in rep_c.records}) == 600

            single = ServeServer(cluster_cfg(shards=1), EXP)
            await single.start()
            rep_s = await run_loadgen("127.0.0.1", single.port, txns,
                                      clients=32, mode="open",
                                      offered_tps=25_000.0, seed=0,
                                      drain=True)
            art_s = single.artifact()
            await single.stop()
            assert rep_s.errors == 0
            assert rep_s.committed == 600

            # Same commit set, same final state: the drained summaries
            # and the exported artifacts agree on the digest.
            digest_c = rep_c.drained["state_digest"]
            digest_s = rep_s.drained["state_digest"]
            assert digest_c == digest_s
            assert art_c["summary"]["state_digest"] == digest_c
            assert art_s["summary"]["state_digest"] == digest_s
        asyncio.run(run())

    def test_responses_carry_shard_and_cross_fields(self):
        async def run():
            server = await start_cluster(cluster_cfg(epoch_max_ms=20.0))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)

            single = make_single_shard_txns(3, shards=3)[0]
            writer.write(encode_frame(
                {"type": "submit", "id": 1, "txn": txn_to_wire(single)}))
            await writer.drain()
            frame = decode_frame(await reader.readline(), SERVER_FRAMES)
            assert frame["status"] == STATUS_COMMITTED
            assert frame["cross_shard"] is False
            assert frame["shard"] in range(3)
            # The routed shard is the one the router names for its keys.
            decision = server.router.classify(single)
            assert frame["shard"] == decision.home

            cross = make_cross_txns(1, shards=3)[0]
            writer.write(encode_frame(
                {"type": "submit", "id": 2, "txn": txn_to_wire(cross)}))
            await writer.drain()
            frame = decode_frame(await reader.readline(), SERVER_FRAMES)
            assert frame["status"] == STATUS_COMMITTED
            assert frame["cross_shard"] is True
            assert frame["shard"] in range(3)

            writer.close()
            await writer.wait_closed()
            await server.stop()
        asyncio.run(run())

    def test_single_engine_responses_omit_shard_fields(self):
        async def run():
            server = ServeServer(cluster_cfg(shards=1), EXP)
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            txn = make_single_shard_txns(1, shards=3)[0]
            writer.write(encode_frame(
                {"type": "submit", "id": 1, "txn": txn_to_wire(txn)}))
            await writer.drain()
            frame = decode_frame(await reader.readline(), SERVER_FRAMES)
            assert frame["status"] == STATUS_COMMITTED
            assert "shard" not in frame
            assert "cross_shard" not in frame
            writer.close()
            await writer.wait_closed()
            await server.stop()
        asyncio.run(run())

    def test_cross_shard_mix_commits_everything(self):
        async def run():
            server = await start_cluster(cluster_cfg())
            txns = (make_single_shard_txns(60, shards=3)
                    + make_cross_txns(60, shards=3))
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=8, mode="closed", seed=0,
                                       drain=True)
            assert report.errors == 0
            assert report.committed == 120
            art = server.artifact()
            await server.stop()

            validate_serve_artifact(art)
            cross_epochs = [e for e in art["epochs"] if e["cross"]]
            shard_epochs = [e for e in art["epochs"] if not e["cross"]]
            assert cross_epochs and shard_epochs
            assert all(e["shard"] == -1 for e in cross_epochs)
            assert all(e["shard"] in range(3) for e in shard_epochs)
            assert sum(e["committed"] for e in art["epochs"]) == 120
        asyncio.run(run())


class TestClusterStages:
    def test_spans_carry_the_shard_measured_stage_split(self):
        async def run():
            server = await start_cluster(cluster_cfg())
            txns = (make_single_shard_txns(60, shards=3)
                    + make_cross_txns(30, shards=3))
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=8, mode="closed", seed=0,
                                       drain=True)
            await server.stop()
            assert report.committed == 90
            return server.spans

        spans = asyncio.run(run())
        for s in spans:
            assert s.sched_start <= s.sched_end <= s.exec_start <= s.exec_end
            assert s.exec_end > s.exec_start
            # Cross slices skip scheduling; single-shard epochs do not.
            assert (s.sched_end > s.sched_start) is not s.cross
        assert {s.cross for s in spans} == {True, False}


class TestClusterRoutes:
    def test_route_map_is_empty_after_drain(self):
        async def run():
            server = await start_cluster(cluster_cfg())
            txns = (make_single_shard_txns(60, shards=3)
                    + make_cross_txns(60, shards=3))
            await run_loadgen("127.0.0.1", server.port, txns, clients=8,
                              mode="closed", seed=0, drain=True)
            await server.stop()
            return server

        server = asyncio.run(run())
        assert any(s.cross for s in server.spans)
        assert server._routes == {}

    def test_one_shard_routes_without_hashing(self, monkeypatch):
        import repro.serve.router as router

        def no_hashing(group, shards):
            raise AssertionError("one shard must not hash")

        txn = make_cross_txns(1, shards=3)[0]
        monkeypatch.setattr(router, "shard_of_group", no_hashing)
        assert ShardRouter(1).classify(txn) == RouteDecision((0,), 0, False)


class TestClusterAdaptive:
    def test_coordinator_predict_section_counts_every_commit(self):
        exp = ExperimentConfig(
            sim=SimConfig(num_threads=4), seed=0,
            predict=PredictConfig(hot_threshold=2.0, admission=False))

        async def run():
            server = await start_cluster(cluster_cfg(shards=2), exp=exp)
            txns = (make_single_shard_txns(80, shards=2,
                                           single_writer=False)
                    + make_cross_txns(40, shards=2))
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=8, mode="closed", seed=0,
                                       drain=True)
            art = server.artifact()
            await server.stop()
            return report, art

        report, art = asyncio.run(run())
        assert report.committed == 120
        predict = art["predict"]
        assert predict["commits_observed"] == art["summary"]["committed"]
        # One merge per epoch, and the merged sketch saw the writes.
        assert predict["epoch"] == art["summary"]["epochs"]
        assert predict["heat_total"] > 0


class TestClusterBackpressure:
    def test_overload_rejects_then_commits_all(self):
        async def run():
            serve = cluster_cfg(queue_limit=16, epoch_max_txns=8,
                                epoch_max_ms=20.0)
            server = await start_cluster(serve)
            txns = make_single_shard_txns(400, shards=3)
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=8, mode="open",
                                       offered_tps=50_000.0, seed=0)
            await server.stop()
            # The burst overflows a 16-deep queue, so the server must
            # push back — and retried submissions must all land.
            assert report.rejects > 0
            assert report.errors == 0
            assert report.committed == 400
        asyncio.run(run())


class TestClusterDrain:
    def test_drain_exports_cluster_artifact(self, tmp_path):
        async def run():
            path = str(tmp_path / "cluster.json")
            server = await start_cluster(cluster_cfg(), export_path=path)
            txns = (make_single_shard_txns(90, shards=3)
                    + make_cross_txns(30, shards=3))
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=8, mode="closed", seed=0,
                                       drain=True)
            await server.stop()

            assert report.drained is not None
            assert report.drained["committed"] == 120
            assert "state_digest" in report.drained

            doc = load_artifact(path)
            validate_serve_artifact(doc)
            shards = doc["shards"]
            assert shards["count"] == 3
            assert len(shards["per_shard"]) == 3
            assert all(entry["alive"] for entry in shards["per_shard"])
            assert (sum(e["committed"] for e in shards["per_shard"])
                    >= report.drained["committed"])
            assert doc["server"]["shards"] == 3
            assert doc["summary"]["state_digest"] == \
                report.drained["state_digest"]
            # The artifact is valid JSON end to end (tuple keys et al
            # never leak into it).
            json.dumps(doc)
        asyncio.run(run())


class TestClusterConfig:
    def test_span_tracing_is_rejected(self):
        with pytest.raises(ConfigError):
            ServeServer(cluster_cfg(), EXP, trace_path="/tmp/x.jsonl")

    def test_unknown_shard_mode_is_rejected(self):
        with pytest.raises(ConfigError):
            ServeServer(cluster_cfg(), EXP, shard_mode="thread")

    def test_fault_naming_missing_shard_is_rejected(self):
        with pytest.raises(ConfigError):
            ServeServer(cluster_cfg(), EXP,
                          shard_faults=[ShardFailStop(shard=7)])
