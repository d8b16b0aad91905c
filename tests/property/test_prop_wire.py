"""Properties of the ``repro.wire/1`` transaction codec.

Two contracts:

* **round trip** — ``txn_from_wire(txn_to_wire(t))`` through real JSON
  bytes rebuilds the same operations, read/write sets, parameters and
  cost fields, for YCSB integer keys, TPC-C composite tuple keys and
  arbitrarily nested keys alike;
* **hostile input** — any JSON value placed in any op, parameter or cost
  position yields either a :class:`Transaction` that the scheduler can
  hash and cost, or a :class:`WireError`.  Anything else escapes the
  server's submit handler and closes the connection without an
  ``error`` frame.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import TpccGenerator, YcsbGenerator
from repro.common.config import SimConfig, TpccConfig, YcsbConfig
from repro.serve import WireError, decode_frame, encode_frame, txn_from_wire, txn_to_wire
from repro.serve.protocol import CLIENT_FRAMES
from repro.txn import HistoryCostModel, OpCountCostModel, OpKind, Operation, Transaction

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
# Keys as tuples nest arbitrarily (JSON arrays decode back to tuples).
nested_keys = st.recursive(scalars, lambda inner: st.tuples(inner, inner)
                           | st.lists(inner, max_size=3).map(tuple),
                           max_leaves=8)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)


def through_the_wire(doc: dict, tid: int) -> Transaction:
    """Encode as a submit frame, decode it as the server does."""
    line = encode_frame({"type": "submit", "id": 1, "txn": doc})
    return txn_from_wire(decode_frame(line, CLIENT_FRAMES)["txn"], tid=tid)


def assert_same(back: Transaction, txn: Transaction) -> None:
    assert back.tid == txn.tid
    assert back.template == txn.template
    assert back.ops == txn.ops
    assert [type(op) for op in back.ops] == [Operation] * len(txn.ops)
    assert back.read_set == txn.read_set
    assert back.write_set == txn.write_set
    assert back.params == txn.params
    assert back.param_signature() == txn.param_signature()
    assert back.min_runtime_cycles == txn.min_runtime_cycles
    assert back.io_delay_cycles == txn.io_delay_cycles
    assert back.has_range == txn.has_range


@st.composite
def random_txns(draw):
    ops = draw(st.lists(
        st.builds(Operation, st.sampled_from(list(OpKind)), st.text(max_size=6),
                  nested_keys, st.one_of(st.none(), nested_keys)),
        min_size=1, max_size=6))
    params = draw(st.dictionaries(st.text(max_size=6), nested_keys, max_size=3))
    return Transaction(
        tid=draw(st.integers(min_value=0, max_value=10**6)),
        template=draw(st.text(max_size=8)),
        ops=tuple(ops),
        params=params,
        min_runtime_cycles=draw(st.integers(min_value=0, max_value=10**9)),
        io_delay_cycles=draw(st.integers(min_value=0, max_value=10**9)),
        has_range=draw(st.booleans()),
    )


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_ycsb(self, seed):
        gen = YcsbGenerator(YcsbConfig(num_records=1_000, theta=0.9,
                                       scan_ratio=0.2), seed=seed)
        for txn in gen.make_workload(10):
            assert_same(through_the_wire(txn_to_wire(txn), txn.tid), txn)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_tpcc_composite_keys(self, seed):
        gen = TpccGenerator(TpccConfig(num_warehouses=2,
                                       customers_per_district=10, items=20),
                            seed=seed)
        for txn in gen.make_workload(10):
            assert_same(through_the_wire(txn_to_wire(txn), txn.tid), txn)

    @settings(max_examples=200, deadline=None)
    @given(txn=random_txns())
    def test_random_nested_keys(self, txn):
        assert_same(through_the_wire(txn_to_wire(txn), txn.tid), txn)


def base_doc() -> dict:
    return {"template": "t", "ops": [["W", "t", 1, "v"], ["R", "t", 2]],
            "params": {"p": 1}, "min_runtime_cycles": 5, "io_delay_cycles": 7}


def _set_op_field(doc, index, value):
    doc["ops"][0][index] = value


def _set_param(doc, value):
    doc["params"]["p"] = value


# Every position a client controls, as a mutation of a valid submit.
POSITIONS = {
    "txn": None,
    "ops": lambda d, v: d.__setitem__("ops", v),
    "op": lambda d, v: d["ops"].__setitem__(0, v),
    "op.kind": lambda d, v: _set_op_field(d, 0, v),
    "op.table": lambda d, v: _set_op_field(d, 1, v),
    "op.key": lambda d, v: _set_op_field(d, 2, v),
    "op.value": lambda d, v: _set_op_field(d, 3, v),
    "op.extra": lambda d, v: d["ops"][0].append(v),
    "params": lambda d, v: d.__setitem__("params", v),
    "param": _set_param,
    "template": lambda d, v: d.__setitem__("template", v),
    "min_runtime_cycles": lambda d, v: d.__setitem__("min_runtime_cycles", v),
    "io_delay_cycles": lambda d, v: d.__setitem__("io_delay_cycles", v),
    "has_range": lambda d, v: d.__setitem__("has_range", v),
}


class TestHostileInput:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(position=st.sampled_from(sorted(POSITIONS)), value=json_values)
    def test_any_json_anywhere_is_a_txn_or_a_wire_error(self, position, value):
        doc = base_doc()
        mutate = POSITIONS[position]
        if mutate is None:
            doc = value
        else:
            mutate(doc, value)
        # Through JSON text, as the bytes arrive on the socket.
        doc = json.loads(json.dumps(doc))
        try:
            txn = txn_from_wire(doc, tid=3)
        except WireError:
            return
        assert isinstance(txn, Transaction)
        # What the serving pipeline does next must not raise either.
        model = HistoryCostModel(fallback=OpCountCostModel(SimConfig()))
        model.record(txn, 10)
        assert model.time(txn) == 10
        assert txn.access_set == txn.read_set | txn.write_set
