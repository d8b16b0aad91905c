"""Epoch-aligned deterministic commit for cross-shard transactions.

No 2PC, no aborts: when a cross-shard epoch closes, the coordinator
fixes a **global order** over its transactions — a seeded shuffle of the
tid-sorted batch, drawn from ``Rng(seed).fork(epoch_id)`` exactly like
the per-epoch scheduling RNG — and every participating shard executes
its *slice* (the ops it owns) serially in that agreed order.  Because
the order is a pure function of ``(seed, epoch_id, admitted tids)``, a
replay that reconstructs the same epochs reproduces the same order, the
same slices, and the same final state.  This is the deterministic-
database move (the ForeSight direction in PAPERS.md): agree on the
order first, then execution needs no coordination at all beyond the
epoch barrier itself.

The ordering functions here are deliberately pure (no I/O, no clocks),
so the live server and the replay harness (:func:`replay_cluster`) call
the exact same code.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ..common.config import ExperimentConfig, ServeConfig
from ..common.rng import Rng
from ..txn.operation import OpKind
from ..txn.transaction import Transaction
from .pipeline import EpochExecutor
from .router import ShardRouter

#: Salt under the epoch fork reserved for the commit-order draw, so the
#: order never correlates with the scheduling RNG of a same-id epoch.
ORDER_SALT = 7


def agreed_order(
    txns: Sequence[Transaction], seed: int, epoch_id: int
) -> list[Transaction]:
    """The epoch's global commit order: a seeded shuffle over tid order.

    Starting from sorted tids makes the result independent of the
    caller's iteration order; the shuffle keeps any one shard from
    systematically executing its slice in admission order (which would
    couple commit order to arrival timing in disguise).
    """
    order = sorted(txns, key=lambda t: t.tid)
    Rng(seed).fork(epoch_id).fork(ORDER_SALT).shuffle(order)
    return order


def shard_slice(
    txn: Transaction, shard: int, home: int, router: ShardRouter
) -> Transaction | None:
    """The sub-transaction of ``txn`` that ``shard`` executes.

    Keeps the ops whose keys the shard owns; unpartitioned-table ops
    ride with the home shard.  The slice keeps the original tid (it is
    the same logical transaction) and re-derives its access sets and
    range flag from the retained ops.  None when the shard owns nothing
    of this transaction.
    """
    owned = []
    for op in txn.ops:
        owner = router.shard_of_key((op.table, op.key))
        if owner == shard or (owner is None and shard == home):
            owned.append(op)
    if not owned:
        return None
    return replace(
        txn,
        ops=tuple(owned),
        has_range=any(op.kind is OpKind.SCAN for op in owned),
    )


def slice_epoch(
    ordered: Sequence[Transaction],
    participants: Sequence[int],
    homes: dict[int, int],
    router: ShardRouter,
) -> dict[int, list[Transaction]]:
    """Per-participant slices of an ordered cross-shard epoch.

    Every slice preserves the agreed order; a participant that owns
    nothing of some transaction simply skips it.  ``homes`` maps tid ->
    home shard (anchoring unpartitioned ops).
    """
    slices: dict[int, list[Transaction]] = {s: [] for s in participants}
    for txn in ordered:
        for shard in participants:
            sliced = shard_slice(txn, shard, homes[txn.tid], router)
            if sliced is not None:
                slices[shard].append(sliced)
    return slices


def replay_cluster(
    serve: ServeConfig,
    exp: ExperimentConfig,
    records: Sequence[tuple],
    transactions: Sequence,
) -> tuple[dict[int, EpochExecutor], dict]:
    """Re-run a cluster session's recorded epochs, batch style.

    ``records`` are ``(epoch_id, shard | None, cross, tids)`` tuples as
    collected by a ``record_epoch_tids`` server (``epoch_records``);
    ``transactions`` must cover every recorded tid.  Epochs are applied
    in id order — exactly the order each shard consumed them live — so
    the resulting per-shard executors finish bit-identical to the live
    shards: same commits, same database state, same clock cursors.
    """
    router = ShardRouter(serve.shards)
    executors = {
        s: EpochExecutor(serve, exp) for s in range(serve.shards)
    }
    txn_of = {t.tid: t for t in transactions}
    for epoch_id, shard_id, cross, tids in sorted(records):
        txns = [txn_of[tid] for tid in tids]
        if cross:
            ordered = agreed_order(txns, exp.seed, epoch_id)
            decisions = {t.tid: router.classify(t) for t in txns}
            homes = {tid: d.home for tid, d in decisions.items()}
            participants = sorted(
                {s for d in decisions.values() for s in d.shards}
            )
            slices = slice_epoch(ordered, participants, homes, router)
            for s in participants:
                if slices[s]:
                    executors[s].execute_serial(slices[s], epoch_id)
        else:
            plan = executors[shard_id].schedule(txns, epoch_id)
            executors[shard_id].execute(plan, epoch_id)
    merged: dict = {}
    for executor in executors.values():
        merged.update(executor.database_state())
    return executors, merged
