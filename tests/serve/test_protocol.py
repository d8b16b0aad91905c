"""repro.wire/1: frame codec and transaction round-trips."""

import json

import pytest

from repro.bench.workloads import TpccGenerator, YcsbGenerator
from repro.common.config import TpccConfig, YcsbConfig
from repro.serve import (
    MAX_FRAME_BYTES,
    WIRE_SCHEMA,
    WireError,
    decode_frame,
    encode_frame,
    txn_from_wire,
    txn_to_wire,
)
from repro.serve.protocol import CLIENT_FRAMES, SERVER_FRAMES, response_frame
from repro.txn import make_transaction, read, write


def roundtrip(txn):
    # Through real JSON bytes, exactly as the socket path does it.
    line = encode_frame({"type": "submit", "id": 1, "txn": txn_to_wire(txn)})
    doc = decode_frame(line, CLIENT_FRAMES)
    return txn_from_wire(doc["txn"], tid=txn.tid)


class TestTxnRoundTrip:
    def test_simple_txn(self):
        txn = make_transaction(7, [read("x", 1), write("x", 2)])
        back = roundtrip(txn)
        assert back.tid == 7
        assert [(o.kind, o.table, o.key) for o in back.ops] == [
            (o.kind, o.table, o.key) for o in txn.ops
        ]

    def test_ycsb_bundle_survives(self):
        gen = YcsbGenerator(YcsbConfig(num_records=1_000, theta=0.9,
                                       scan_ratio=0.2), seed=5)
        for txn in gen.make_workload(50):
            back = roundtrip(txn)
            assert back.ops == txn.ops
            assert back.params == txn.params
            assert back.has_range == txn.has_range
            assert back.read_set == txn.read_set
            assert back.write_set == txn.write_set

    def test_tpcc_composite_keys_stay_tuples(self):
        gen = TpccGenerator(TpccConfig(num_warehouses=2,
                                       customers_per_district=10,
                                       items=20), seed=6)
        for txn in gen.make_workload(40):
            back = roundtrip(txn)
            assert back.ops == txn.ops
            assert back.params == txn.params
            for op in back.ops:
                if isinstance(op.key, tuple):
                    hash(op.key)  # decoded keys must stay hashable
            # param_signature hashes params values; must not raise.
            assert back.param_signature() == txn.param_signature()

    def test_cost_fields_travel(self):
        txn = make_transaction(1, [read("x", 1)],
                               min_runtime_cycles=5_000, io_delay_cycles=777)
        back = roundtrip(txn)
        assert back.min_runtime_cycles == 5_000
        assert back.io_delay_cycles == 777


class TestFrameCodec:
    def test_encode_stamps_version(self):
        doc = json.loads(encode_frame({"type": "stats"}))
        assert doc["v"] == WIRE_SCHEMA

    def test_one_line_per_frame(self):
        line = encode_frame(response_frame(3, "committed", tid=9))
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_rejects_non_json(self):
        with pytest.raises(WireError):
            decode_frame(b"not json\n", CLIENT_FRAMES)

    def test_rejects_wrong_version(self):
        line = json.dumps({"v": "repro.wire/999", "type": "stats"}).encode()
        with pytest.raises(WireError):
            decode_frame(line, CLIENT_FRAMES)

    def test_rejects_unknown_type(self):
        line = encode_frame({"type": "response", "id": 1, "status": "x"})
        with pytest.raises(WireError):
            decode_frame(line, CLIENT_FRAMES)  # server frame, client set
        decode_frame(line, SERVER_FRAMES)

    def test_rejects_oversized_frame(self):
        line = encode_frame({"type": "stats", "pad": "x" * MAX_FRAME_BYTES})
        with pytest.raises(WireError):
            decode_frame(line, CLIENT_FRAMES)

    def test_submit_needs_integer_id(self):
        for bad_id in ("7", None, True):
            line = encode_frame({"type": "submit", "id": bad_id,
                                 "txn": {"ops": [["read", "x", 1]]}})
            with pytest.raises(WireError):
                decode_frame(line, CLIENT_FRAMES)

    def test_submit_needs_txn(self):
        line = encode_frame({"type": "submit", "id": 1})
        with pytest.raises(WireError):
            decode_frame(line, CLIENT_FRAMES)


class TestTxnValidation:
    def test_rejects_empty_ops(self):
        with pytest.raises(WireError):
            txn_from_wire({"ops": []}, tid=1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(WireError):
            txn_from_wire({"ops": [["explode", "x", 1]]}, tid=1)

    def test_rejects_malformed_op(self):
        with pytest.raises(WireError):
            txn_from_wire({"ops": [["read", "x"]]}, tid=1)

    def test_rejects_negative_cost(self):
        with pytest.raises(WireError):
            txn_from_wire({"ops": [["read", "x", 1]],
                           "min_runtime_cycles": -1}, tid=1)

    def test_rejects_object_valued_key(self):
        for key in ({"a": 1}, [1, {"a": 1}]):
            with pytest.raises(WireError, match=r"ops\[0\]: key"):
                txn_from_wire({"ops": [["W", "t", key]]}, tid=1)

    def test_rejects_array_valued_kind(self):
        with pytest.raises(WireError, match="unknown op kind"):
            txn_from_wire({"ops": [[["W"], "t", 1]]}, tid=1)

    def test_rejects_object_valued_param(self):
        # Parameters are hashed by the history cost model at schedule time.
        with pytest.raises(WireError, match="params"):
            txn_from_wire({"ops": [["W", "t", 1]], "params": {"p": {"a": 1}}},
                          tid=1)

    def test_object_values_are_payloads_not_keys(self):
        t = txn_from_wire({"ops": [["W", "t", 1, {"a": [1, 2]}]]}, tid=1)
        assert t.ops[0].value == {"a": [1, 2]}

    def test_rejects_deep_nesting(self):
        deep = "[" * 5_000 + "]" * 5_000
        line = ('{"type":"submit","id":1,"txn":{"ops":[["W","t",%s]]}}'
                % deep).encode()
        with pytest.raises(WireError, match="nests too deeply"):
            decode_frame(line, CLIENT_FRAMES)
        # Shallow enough for the JSON parser, too deep to rebuild as tuples.
        key = json.loads("[" * 900 + "]" * 900)
        with pytest.raises(WireError, match="nests arrays too deeply"):
            txn_from_wire({"ops": [["W", "t", key]]}, tid=1)
