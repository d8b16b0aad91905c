"""Loopback end-to-end: concurrency, backpressure, drain, equivalence."""

import asyncio
import json

from repro.bench.workloads import YcsbGenerator
from repro.common.config import (
    ExperimentConfig,
    ServeConfig,
    SimConfig,
    YcsbConfig,
)
from repro.obs import load_artifact, validate_serve_artifact
from repro.serve import (
    STATUS_COMMITTED,
    ServeServer,
    poisson_schedule,
    replay_epochs,
    run_loadgen,
    txn_from_wire,
    txn_to_wire,
)
from repro.serve.protocol import SERVER_FRAMES, decode_frame, encode_frame

EXP = ExperimentConfig(sim=SimConfig(num_threads=4), seed=0)


def make_txns(n, seed=0, records=20_000, theta=0.8):
    gen = YcsbGenerator(YcsbConfig(num_records=records, theta=theta,
                                   ops_per_txn=4), seed=seed)
    return list(gen.make_workload(n))


async def start_server(serve, exp=EXP, **kw):
    server = ServeServer(serve, exp, **kw)
    await server.start()
    return server


class TestLoopbackE2E:
    def test_32_clients_10k_txns_no_lost_no_dup_matches_batch(self):
        async def run():
            # Open-loop at a rate well above service capacity keeps the
            # batcher full while epochs execute; the queue limit is
            # sized to admit the whole burst without backpressure.
            serve = ServeConfig(port=0, system="tskd-0", epoch_max_txns=32,
                                epoch_max_ms=200.0, queue_limit=20_000,
                                record_epoch_tids=True)
            server = await start_server(serve)
            txns = make_txns(10_000)
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=32, mode="open",
                                       offered_tps=25_000.0, seed=0)

            # Zero lost, zero duplicated: every request id answered once,
            # every server tid unique, all committed.
            assert report.errors == 0
            assert report.committed == 10_000
            req_ids = [r.req_id for r in report.records]
            assert sorted(req_ids) == list(range(10_000))
            tids = [r.tid for r in report.records]
            assert len(set(tids)) == 10_000

            # The server's epoch composition, replayed as batches through
            # an identical executor, must commit the same transactions
            # and leave an identical final database state.
            by_tid = {
                r.tid: txn_from_wire(txn_to_wire(txns[r.req_id]), tid=r.tid)
                for r in report.records
            }
            spans = sorted(server.spans, key=lambda s: s.epoch_id)
            epochs = [[by_tid[t] for t in s.tids] for s in spans]
            assert sum(len(e) for e in epochs) == 10_000
            replayed, outcomes = replay_epochs(serve, EXP, epochs)
            executor = server.shards[0].executor
            assert replayed.database_state() == executor.database_state()
            assert replayed.clock == executor.clock
            assert {tid for o in outcomes for tid in o.attempts} == set(tids)
            await server.stop()
        asyncio.run(run())

    def test_responses_carry_latency_breakdown(self):
        async def run():
            serve = ServeConfig(port=0, system="tskd-cc", epoch_max_txns=16,
                                epoch_max_ms=50.0)
            server = await start_server(serve)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            txn = make_txns(1)[0]
            writer.write(encode_frame(
                {"type": "submit", "id": 5, "txn": txn_to_wire(txn)}))
            await writer.drain()
            frame = decode_frame(await reader.readline(), SERVER_FRAMES)
            assert frame["status"] == STATUS_COMMITTED
            assert frame["id"] == 5
            assert frame["attempts"] >= 1
            lat = frame["latency_ms"]
            assert set(lat) == {"queue", "schedule", "execute", "total"}
            assert lat["total"] >= 0
            writer.close()
            await writer.wait_closed()
            await server.stop()
        asyncio.run(run())

    def test_stats_frame(self):
        async def run():
            server = await start_server(
                ServeConfig(port=0, epoch_max_txns=8, epoch_max_ms=30.0))
            await run_loadgen("127.0.0.1", server.port, make_txns(24),
                              clients=4, mode="closed", seed=1)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(encode_frame({"type": "stats"}))
            await writer.drain()
            frame = decode_frame(await reader.readline(), SERVER_FRAMES)
            assert frame["type"] == "stats"
            assert frame["data"]["admitted"] == 24
            assert frame["data"]["end_cycles"] > 0
            writer.close()
            await writer.wait_closed()
            await server.stop()
        asyncio.run(run())


class TestBackpressure:
    def test_bounded_queue_rejects_then_retry_succeeds(self):
        async def run():
            # Tiny admission window + open-loop overdrive: the server must
            # reject rather than queue, and client retries must land every
            # transaction eventually.
            serve = ServeConfig(port=0, system="dbcc", epoch_max_txns=8,
                                epoch_max_ms=20.0, queue_limit=16,
                                retry_after_ms=5.0)
            server = await start_server(serve)
            txns = make_txns(300, seed=3)
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=8, mode="open",
                                       offered_tps=20_000.0, seed=3)
            assert report.rejects > 0          # backpressure engaged
            assert report.committed == 300     # and every retry landed
            assert report.errors == 0
            assert server._pending == 0
            # Admissions stayed within the bound the whole time.
            assert server.metrics.value("serve.rejected") == report.rejects
            await server.stop()
        asyncio.run(run())


class TestGracefulDrain:
    def test_drain_completes_inflight_and_writes_artifact(self, tmp_path):
        async def run():
            path = tmp_path / "serve.json"
            serve = ServeConfig(port=0, system="tskd-0", epoch_max_txns=16,
                                epoch_max_ms=40.0, record_epoch_tids=True)
            server = await start_server(serve, export_path=str(path))
            txns = make_txns(200, seed=7)
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=8, mode="closed", seed=7,
                                       drain=True)
            # Drain answered with a summary covering everything admitted.
            assert report.drained is not None
            assert report.drained["admitted"] == 200
            assert report.drained["committed"] == 200
            # Every admitted transaction was answered before the summary.
            assert report.committed == 200

            doc = load_artifact(path)  # validates repro.serve/1 by schema
            validate_serve_artifact(doc)
            assert doc["schema"] == "repro.serve/1"
            assert doc["summary"]["committed"] == 200
            assert sum(e["size"] for e in doc["epochs"]) == 200
            assert all("tids" in e for e in doc["epochs"])
            await server.stop()
        asyncio.run(run())

    def test_submits_after_drain_are_rejected(self):
        async def run():
            server = await start_server(
                ServeConfig(port=0, epoch_max_txns=8, epoch_max_ms=30.0))
            await server.drain()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            writer.write(encode_frame(
                {"type": "submit", "id": 1,
                 "txn": txn_to_wire(make_txns(1)[0])}))
            await writer.drain()
            frame = decode_frame(await reader.readline(), SERVER_FRAMES)
            assert frame["status"] == "rejected"
            writer.close()
            await writer.wait_closed()
            await server.stop()
        asyncio.run(run())


class TestMalformedInput:
    def test_bad_frames_get_errors_not_crashes(self):
        async def run():
            server = await start_server(
                ServeConfig(port=0, epoch_max_txns=8, epoch_max_ms=30.0))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            for bad in (b"garbage\n",
                        b'{"v": "repro.wire/1", "type": "nope"}\n',
                        b'{"v": "repro.wire/1", "type": "submit", "id": 1, '
                        b'"txn": {"ops": []}}\n'):
                writer.write(bad)
                await writer.drain()
                frame = decode_frame(await reader.readline(), SERVER_FRAMES)
                assert frame["type"] == "error"
            # The connection still works afterwards.
            writer.write(encode_frame(
                {"type": "submit", "id": 2,
                 "txn": txn_to_wire(make_txns(1)[0])}))
            await writer.drain()
            frame = decode_frame(await reader.readline(), SERVER_FRAMES)
            assert frame["status"] == STATUS_COMMITTED
            writer.close()
            await writer.wait_closed()
            await server.stop()
        asyncio.run(run())


    def test_hostile_submits_get_errors_and_connection_survives(self):
        # Object-valued keys, array-valued kinds, object-valued params and
        # too-deep nesting once raised TypeError or RecursionError and
        # closed the connection without an error frame.
        async def run():
            server = await start_server(
                ServeConfig(port=0, epoch_max_txns=8, epoch_max_ms=30.0))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port)
            for i, txn in enumerate((
                    {"ops": [["W", "t", {"a": 1}]]},
                    {"ops": [[["W"], "t", 1]]},
                    {"ops": [["W", "t", 1]], "params": {"p": {"a": 1}}})):
                writer.write(encode_frame(
                    {"type": "submit", "id": i, "txn": txn}))
                await writer.drain()
                frame = decode_frame(
                    await asyncio.wait_for(reader.readline(), 10),
                    SERVER_FRAMES)
                assert frame["type"] == "error", frame
            # Nesting deep enough to exhaust the JSON parser's recursion.
            deep = "[" * 5_000 + "]" * 5_000
            writer.write(('{"type":"submit","id":8,"txn":{"ops":[["W","t",%s]]}}\n'
                          % deep).encode())
            await writer.drain()
            frame = decode_frame(
                await asyncio.wait_for(reader.readline(), 10), SERVER_FRAMES)
            assert frame["type"] == "error", frame
            writer.write(encode_frame(
                {"type": "submit", "id": 9,
                 "txn": txn_to_wire(make_txns(1)[0])}))
            await writer.drain()
            frame = decode_frame(
                await asyncio.wait_for(reader.readline(), 10), SERVER_FRAMES)
            assert frame["id"] == 9
            assert frame["status"] == STATUS_COMMITTED
            assert server.summary()["committed"] == 1
            writer.close()
            await writer.wait_closed()
            await server.stop()
        asyncio.run(run())


class TestLoadgenDeterminism:
    def test_poisson_schedule_is_seeded(self):
        a = poisson_schedule(200, 5_000.0, seed=11)
        b = poisson_schedule(200, 5_000.0, seed=11)
        c = poisson_schedule(200, 5_000.0, seed=12)
        assert a == b
        assert a != c
        assert all(x < y for x, y in zip(a, a[1:]))

    def test_same_seed_same_submission_plan(self):
        # The wire bytes each client would send are a pure function of
        # (seed, clients): same seed -> identical transaction stream.
        t1 = make_txns(50, seed=5)
        t2 = make_txns(50, seed=5)
        plan1 = [json.loads(encode_frame(
            {"type": "submit", "id": i, "txn": txn_to_wire(t)}))
            for i, t in enumerate(t1)]
        plan2 = [json.loads(encode_frame(
            {"type": "submit", "id": i, "txn": txn_to_wire(t)}))
            for i, t in enumerate(t2)]
        assert plan1 == plan2

    def test_two_seeded_runs_commit_identical_sets(self):
        async def run(seed):
            serve = ServeConfig(port=0, system="tskd-cc", epoch_max_txns=16,
                                epoch_max_ms=40.0)
            server = await start_server(serve)
            txns = make_txns(120, seed=seed)
            report = await run_loadgen("127.0.0.1", server.port, txns,
                                       clients=4, mode="closed", seed=seed)
            await server.stop()
            return report

        r1 = asyncio.run(run(9))
        r2 = asyncio.run(run(9))
        assert r1.committed == r2.committed == 120
        assert [r.req_id for r in r1.records] == [r.req_id for r in r2.records]
