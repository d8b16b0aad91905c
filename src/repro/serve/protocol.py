"""``repro.wire/1`` — the serving subsystem's wire protocol.

Newline-delimited JSON over a byte stream: every frame is one JSON
object on one line, with a ``type`` discriminator and the protocol
version under ``v``.  The framing is deliberately trivial — the point of
:mod:`repro.serve` is the scheduling boundary, not transport engineering
— but the codec is strict: unknown types, missing fields, and oversized
lines are rejected with :class:`WireError` so a malformed client cannot
wedge the server.

Frame inventory (``c>`` client to server, ``s>`` server to client)::

    c> {"v": "repro.wire/1", "type": "submit", "id": 7, "txn": {...}}
    s> {"v": ..., "type": "response", "id": 7, "status": "committed",
        "tid": 1042, "epoch": 3, "attempts": 1,
        "latency_ms": {"queue": 1.2, "schedule": 0.8, "execute": 2.9,
                       "total": 4.9}}
    s> {"v": ..., "type": "response", "id": 8, "status": "rejected",
        "retry_after_ms": 25.0}

A sharded server (``serve --shards N``) additionally stamps committed
responses with ``"shard"`` (the executing shard) and ``"cross_shard"``
(true when the transaction spanned shards and went through the
epoch-aligned deterministic commit).  Single-engine servers omit both,
so ``repro.wire/1`` stays backwards compatible either way.

    c> {"v": ..., "type": "stats"}
    s> {"v": ..., "type": "stats", "data": {...}}

    c> {"v": ..., "type": "drain"}
    s> {"v": ..., "type": "drained", "summary": {...}}

    s> {"v": ..., "type": "error", "error": "..."}

Transactions travel as their instantiated operation sequences (the
stored-procedure assumption of Section 3): each op is a
``[kind, table, key]`` or ``[kind, table, key, value]`` array.  JSON has
no tuples, so composite keys (TPC-C's ``(w_id, d_id)`` and friends)
encode as arrays and are rebuilt into tuples on decode — the codec is a
bijection over every key/parameter shape the generators produce.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Optional

from ..common.errors import ReproError
from ..txn.operation import Operation, OpKind
from ..txn.transaction import Transaction

#: Wire protocol identifier, carried in every frame's ``v`` field.
WIRE_SCHEMA = "repro.wire/1"

#: Hard per-line cap; a frame longer than this is a protocol violation.
MAX_FRAME_BYTES = 1_048_576

#: Frame types a server accepts / emits.
CLIENT_FRAMES = ("submit", "stats", "drain")
SERVER_FRAMES = ("response", "stats", "drained", "error")

#: Response statuses.
STATUS_COMMITTED = "committed"
STATUS_REJECTED = "rejected"


class WireError(ReproError):
    """A frame violated the ``repro.wire/1`` protocol."""


# ----------------------------------------------------------------------
# value codec: JSON arrays <-> tuples
# ----------------------------------------------------------------------
def _freeze(value: Any) -> Any:
    """Rebuild decoded JSON arrays into the tuples the engine hashes."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value: Any) -> Any:
    """Encode tuples as JSON arrays (json.dumps does this natively)."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


# ----------------------------------------------------------------------
# transaction codec
# ----------------------------------------------------------------------
def txn_to_wire(txn: Transaction) -> dict:
    """Serialise a transaction for a submit frame (tid stays local)."""
    doc: dict = {
        "template": txn.template,
        "ops": [
            [op.kind.value, op.table, _thaw(op.key)]
            if op.value is None
            else [op.kind.value, op.table, _thaw(op.key), _thaw(op.value)]
            for op in txn.ops
        ],
    }
    if txn.params:
        doc["params"] = {str(k): _thaw(v) for k, v in txn.params.items()}
    if txn.min_runtime_cycles:
        doc["min_runtime_cycles"] = txn.min_runtime_cycles
    if txn.io_delay_cycles:
        doc["io_delay_cycles"] = txn.io_delay_cycles
    if txn.has_range:
        doc["has_range"] = True
    return doc


_KINDS = {k.value: k for k in OpKind}


def txn_from_wire(doc: Mapping, tid: int) -> Transaction:
    """Rebuild a transaction from a submit frame under a server tid.

    Keys and parameter values get hashed downstream (access sets, the
    cost model), so one holding a JSON object is rejected here.
    """
    try:
        return _txn_from_wire(doc, tid)
    except RecursionError:
        raise WireError("txn nests arrays too deeply") from None


def _txn_from_wire(doc: Mapping, tid: int) -> Transaction:
    if not isinstance(doc, Mapping):
        raise WireError(f"txn must be an object, got {type(doc).__name__}")
    raw_ops = doc.get("ops")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise WireError("txn.ops must be a non-empty array")
    ops = []
    for i, entry in enumerate(raw_ops):
        if not isinstance(entry, list) or not 3 <= len(entry) <= 4:
            raise WireError(f"txn.ops[{i}] must be [kind, table, key(, value)]")
        kind = _KINDS.get(entry[0]) if isinstance(entry[0], str) else None
        if kind is None:
            raise WireError(f"txn.ops[{i}]: unknown op kind {entry[0]!r}")
        table = entry[1]
        if not isinstance(table, str):
            raise WireError(f"txn.ops[{i}]: table must be a string")
        key = _freeze(entry[2])
        try:
            hash(key)
        except TypeError:
            raise WireError(f"txn.ops[{i}]: key must not contain an object") from None
        ops.append(Operation(kind, table, key,
                             _freeze(entry[3]) if len(entry) == 4 else None))
    params = doc.get("params") or {}
    if not isinstance(params, Mapping):
        raise WireError("txn.params must be an object")
    params = {k: _freeze(v) for k, v in params.items()}
    try:
        hash(tuple(params.values()))
    except TypeError:
        raise WireError("txn.params values must not contain an object") from None
    for field in ("min_runtime_cycles", "io_delay_cycles"):
        v = doc.get(field, 0)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise WireError(f"txn.{field} must be a non-negative integer")
    return Transaction(
        tid=tid,
        template=str(doc.get("template", "adhoc")),
        ops=tuple(ops),
        params=params,
        min_runtime_cycles=doc.get("min_runtime_cycles", 0),
        io_delay_cycles=doc.get("io_delay_cycles", 0),
        has_range=bool(doc.get("has_range", False)),
    )


# ----------------------------------------------------------------------
# frame codec
# ----------------------------------------------------------------------
def encode_frame(frame: Mapping) -> bytes:
    """One frame -> one newline-terminated JSON line."""
    doc = dict(frame)
    doc.setdefault("v", WIRE_SCHEMA)
    return (json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n").encode()


def decode_frame(line: bytes, allowed: tuple[str, ...]) -> dict:
    """Parse and validate one received line against ``allowed`` types."""
    if len(line) > MAX_FRAME_BYTES:
        raise WireError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as e:
        raise WireError(f"frame is not JSON: {e}") from None
    except RecursionError:
        raise WireError("frame nests too deeply") from None
    if not isinstance(doc, dict):
        raise WireError(f"frame must be an object, got {type(doc).__name__}")
    if doc.get("v", WIRE_SCHEMA) != WIRE_SCHEMA:
        raise WireError(f"unsupported protocol version {doc.get('v')!r}")
    kind = doc.get("type")
    if kind not in allowed:
        raise WireError(f"unexpected frame type {kind!r}; allowed: {allowed}")
    if kind == "submit":
        if "txn" not in doc:
            raise WireError("submit frame is missing 'txn'")
        req_id = doc.get("id")
        if not isinstance(req_id, int) or isinstance(req_id, bool):
            raise WireError("submit frame needs an integer 'id'")
    return doc


# -- frame builders (server side) --------------------------------------
def response_frame(
    req_id: int,
    status: str,
    tid: Optional[int] = None,
    epoch: Optional[int] = None,
    attempts: Optional[int] = None,
    latency_ms: Optional[Mapping[str, float]] = None,
    retry_after_ms: Optional[float] = None,
    shard: Optional[int] = None,
    cross_shard: Optional[bool] = None,
) -> dict:
    frame: dict = {"type": "response", "id": req_id, "status": status}
    if tid is not None:
        frame["tid"] = tid
    if epoch is not None:
        frame["epoch"] = epoch
    if attempts is not None:
        frame["attempts"] = attempts
    if latency_ms is not None:
        frame["latency_ms"] = {k: round(v, 3) for k, v in latency_ms.items()}
    if retry_after_ms is not None:
        frame["retry_after_ms"] = retry_after_ms
    if shard is not None:
        frame["shard"] = shard
    if cross_shard is not None:
        frame["cross_shard"] = cross_shard
    return frame


def error_frame(message: str) -> dict:
    return {"type": "error", "error": message}
