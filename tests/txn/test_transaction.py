"""Transactions, operations, and derived access sets."""

import copy
import pickle

import pytest

from repro.common.errors import WorkloadError
from repro.txn import OpKind, Operation, insert, make_transaction, read, write
from repro.txn.operation import Key


class TestOperation:
    def test_shorthands(self):
        r = read("t", 1)
        w = write("t", 2, value="v")
        i = insert("t", 3)
        assert r.kind is OpKind.READ and not r.is_write
        assert w.kind is OpKind.WRITE and w.is_write and w.value == "v"
        assert i.kind is OpKind.INSERT and i.is_write

    def test_record_key(self):
        assert read("items", 7).record_key == ("items", 7)

    def test_repr_is_compact(self):
        assert repr(write("x", 1)) == "W[x:1]"

    def test_scan_is_not_a_write(self):
        assert not Operation(OpKind.SCAN, "t", 1).is_write

    def test_immutable_without_instance_dict(self):
        op = write("t", 1)
        assert not hasattr(op, "__dict__")
        with pytest.raises(AttributeError):
            op.key = 2
        with pytest.raises(AttributeError):
            op.extra = 1

    def test_value_equality_and_hash(self):
        assert write("t", (1, 2), value="v") == write("t", (1, 2), value="v")
        assert hash(read("t", 1)) == hash(read("t", 1))
        assert read("t", 1) != write("t", 1)
        assert write("t", 1, value="a") != write("t", 1, value="b")
        assert len({read("t", 1), read("t", 1), insert("t", 1)}) == 2

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        # --shards N ships transactions to worker processes by pickle.
        for op in (read("t", 1), write("w", (3, 4), value={"a": 1}),
                   insert("i", "k"), Operation(OpKind.SCAN, "s", 9)):
            back = pickle.loads(pickle.dumps(op, protocol))
            assert type(back) is Operation
            assert back == op
            assert (back.kind, back.table, back.key, back.value) == (
                op.kind, op.table, op.key, op.value)
            assert back.record_key == op.record_key
            assert back.is_write is op.is_write
            assert repr(back) == repr(op)

    def test_copies_keep_derived_fields(self):
        op = write("t", (1, 2))
        for back in (copy.copy(op), copy.deepcopy(op)):
            assert back == op and back.record_key == ("t", (1, 2))
            assert back.is_write


class TestTransaction:
    def test_read_write_sets(self):
        t = make_transaction(0, [read("a", 1), write("a", 2), read("b", 1),
                                 write("b", 1)])
        assert t.read_set == {("a", 1), ("b", 1)}
        assert t.write_set == {("a", 2), ("b", 1)}
        assert t.access_set == {("a", 1), ("a", 2), ("b", 1)}

    def test_scan_keys_count_as_reads(self):
        t = make_transaction(0, [Operation(OpKind.SCAN, "a", 5)])
        assert ("a", 5) in t.read_set

    def test_empty_transaction_rejected(self):
        with pytest.raises(WorkloadError):
            make_transaction(0, [])

    def test_num_ops(self):
        t = make_transaction(0, [read("a", 1)] * 3)
        assert t.num_ops == 3

    def test_param_signature_is_order_insensitive(self):
        t1 = make_transaction(0, [read("a", 1)], params={"x": 1, "y": 2})
        t2 = make_transaction(1, [read("a", 1)], params={"y": 2, "x": 1})
        assert t1.param_signature() == t2.param_signature()

    def test_equality_and_hash_by_tid(self):
        t1 = make_transaction(5, [read("a", 1)])
        t2 = make_transaction(5, [write("b", 9)])
        assert t1 == t2 and hash(t1) == hash(t2)
        assert t1 != make_transaction(6, [read("a", 1)])

    def test_defaults(self):
        t = make_transaction(0, [read("a", 1)])
        assert t.min_runtime_cycles == 0
        assert t.io_delay_cycles == 0
        assert not t.has_range

    def test_repr(self):
        t = make_transaction(3, [read("a", 1)], template="Payment")
        assert "T3" in repr(t) and "Payment" in repr(t)
