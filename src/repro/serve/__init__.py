"""repro.serve — the live scheduling service.

A TCP front door over the TSKD pipeline: clients submit transactions
over ``repro.wire/1`` (newline-delimited JSON), the server admits them
through a bounded queue with explicit backpressure, closes *epochs* by
size or deadline, and runs each epoch through partitioner → TSgen →
TsDEFER → engine against a persistent store, schedule then execute.
Every run is replayable batch-side via
:func:`~repro.serve.pipeline.replay_epochs`.

The store is split into ``--shards N`` engine shards, each owning a hash
partition of the key space; one shard runs in-process, N > 1 each in
its own worker process.  Cross-shard transactions commit in an
epoch-aligned deterministic order with no 2PC (see docs/sharding.md and
:mod:`repro.serve.coordinator`).

Layout:

* :mod:`repro.serve.protocol` — the wire codec (frames, txn encoding);
* :mod:`repro.serve.batcher`  — size/deadline epoch closing;
* :mod:`repro.serve.pipeline` — the deterministic epoch executor;
* :mod:`repro.serve.server`   — the asyncio TCP server, admission, dispatch;
* :mod:`repro.serve.router`   — key partitioning + txn classification;
* :mod:`repro.serve.shard`    — per-shard engine workers (process/inline);
* :mod:`repro.serve.coordinator` — agreed-order cross-shard commit + replay;
* :mod:`repro.serve.loadgen`  — seeded open/closed-loop client driver.

See docs/serving.md for the protocol and epoch lifecycle.
"""

from .batcher import CLOSE_DEADLINE, CLOSE_DRAIN, CLOSE_SIZE, Epoch, EpochBatcher, Submission
from .coordinator import agreed_order, replay_cluster, shard_slice, slice_epoch
from .loadgen import (
    LoadgenReport,
    TxnRecord,
    flash_crowd_schedule,
    poisson_schedule,
    run_loadgen,
)
from .pipeline import (
    SERVABLE_SYSTEMS,
    EpochExecutor,
    EpochOutcome,
    EpochSpan,
    TxnOutcome,
    make_servable_system,
    replay_epochs,
    state_digest,
)
from .router import (
    UNPARTITIONED_TABLES,
    RouteDecision,
    ShardRouter,
    affinity_group,
    shard_of_group,
)
from .shard import InlineShard, ProcessShard, ShardDeadError, ShardEpochResult
from .protocol import (
    MAX_FRAME_BYTES,
    STATUS_COMMITTED,
    STATUS_REJECTED,
    WIRE_SCHEMA,
    WireError,
    decode_frame,
    encode_frame,
    txn_from_wire,
    txn_to_wire,
)
from .server import ServeServer

__all__ = [
    "CLOSE_DEADLINE",
    "CLOSE_DRAIN",
    "CLOSE_SIZE",
    "Epoch",
    "EpochBatcher",
    "EpochExecutor",
    "EpochOutcome",
    "EpochSpan",
    "InlineShard",
    "LoadgenReport",
    "MAX_FRAME_BYTES",
    "ProcessShard",
    "RouteDecision",
    "SERVABLE_SYSTEMS",
    "STATUS_COMMITTED",
    "STATUS_REJECTED",
    "ServeServer",
    "ShardDeadError",
    "ShardEpochResult",
    "ShardRouter",
    "Submission",
    "TxnOutcome",
    "TxnRecord",
    "UNPARTITIONED_TABLES",
    "WIRE_SCHEMA",
    "WireError",
    "affinity_group",
    "agreed_order",
    "decode_frame",
    "encode_frame",
    "flash_crowd_schedule",
    "make_servable_system",
    "poisson_schedule",
    "replay_cluster",
    "replay_epochs",
    "run_loadgen",
    "shard_of_group",
    "shard_slice",
    "slice_epoch",
    "state_digest",
    "txn_from_wire",
    "txn_to_wire",
]
