"""Key-space partitioning and routing for the sharded serving cluster.

The router answers one question per admitted transaction: *which engine
shards does it touch?*  Keys are mapped to shards by hashing their
**affinity group** — the first element of a composite (tuple) key, the
key itself otherwise — so TPC-C's ``(w_id, ...)`` composite keys all
land with their warehouse and the classic "most NewOrders stay inside
one warehouse" locality turns into "most transactions are single-shard".
For flat YCSB keys the group is the key and hashing spreads rows
uniformly.

Two deliberate design points:

* **Never the builtin ``hash``.**  Python randomises string hashing per
  process (``PYTHONHASHSEED``); routing must agree between the front
  door, every shard worker, every restart, and every replay.  Shards are
  assigned from a SHA-256 over :func:`~repro.common.hashing.stable_repr`
  of the group, salted with :data:`ROUTER_SALT` so a future remap can
  bump the version without colliding with this one.

* **Unpartitioned tables.**  TPC-C's ``item`` table is read-only and
  ``history`` is insert-once with globally unique keys, so neither
  constrains placement; both live "everywhere" and their accesses are
  ignored for classification (a NewOrder reading ``item`` rows is not
  cross-shard for it).  Their rows materialise on the transaction's home
  shard, which keeps per-shard states disjoint and mergeable.

A transaction whose partitioned accesses all map to one shard routes to
that shard's epoch batcher; one that spans shards goes through the
coordinator's epoch-aligned deterministic commit (:mod:`.coordinator`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..common.errors import ConfigError
from ..common.hashing import stable_repr
from ..txn.operation import Key
from ..txn.transaction import Transaction

#: Domain-separation salt for the shard map; bump to remap the universe.
ROUTER_SALT = b"repro.shard/1\x00"

#: Tables replicated/unconstrained rather than partitioned: read-only
#: catalogs and append-only logs with globally unique keys.
UNPARTITIONED_TABLES = frozenset({"item", "history"})


def affinity_group(pk: object) -> object:
    """The placement unit a primary key belongs to.

    Composite (tuple) keys group by their first element — for TPC-C that
    is always ``w_id``, so a warehouse's rows across every partitioned
    table co-locate.  Scalar keys are their own group.
    """
    if isinstance(pk, tuple) and pk:
        return pk[0]
    return pk


def shard_of_group(group: object, shards: int) -> int:
    """Deterministic, process-independent shard id for a group."""
    digest = hashlib.sha256(ROUTER_SALT + stable_repr(group).encode())
    return int.from_bytes(digest.digest()[:8], "big") % shards


@dataclass(frozen=True)
class RouteDecision:
    """Where one transaction executes."""

    #: Owning shard ids of the partitioned accesses, ascending; always
    #: non-empty (a txn with only unpartitioned accesses gets a home).
    shards: tuple[int, ...]
    #: The shard that executes it when single-shard, and that hosts its
    #: unpartitioned rows either way: the first partitioned access's
    #: owner (deterministic in the op sequence, not the access *set*).
    home: int
    #: True when the partitioned access set spans shard boundaries.
    cross: bool


#: The only route of an unsplit key space, decided without hashing.
_ONE_SHARD = RouteDecision(shards=(0,), home=0, cross=False)


class ShardRouter:
    """Total, collision-free map from keys to ``shards`` engine shards."""

    def __init__(self, shards: int):
        if shards < 1:
            raise ConfigError(f"router needs >= 1 shard, got {shards}")
        self.shards = shards

    def shard_of_key(self, key: Key) -> int | None:
        """Owning shard of ``(table, pk)``; None for unpartitioned tables."""
        table, pk = key
        if table in UNPARTITIONED_TABLES:
            return None
        return shard_of_group(affinity_group(pk), self.shards)

    def classify(self, txn: Transaction) -> RouteDecision:
        """Single-shard or cross-shard, from the txn's access sequence."""
        if self.shards == 1:
            return _ONE_SHARD  # shard_of_group(g, 1) is always 0
        owners: list[int] = []
        seen: set[int] = set()
        fallback: int | None = None
        for op in txn.ops:
            if op.table in UNPARTITIONED_TABLES:
                if fallback is None:
                    fallback = shard_of_group(
                        affinity_group(op.key), self.shards
                    )
                continue
            shard = shard_of_group(affinity_group(op.key), self.shards)
            if shard not in seen:
                seen.add(shard)
                owners.append(shard)
        if not owners:
            # Only unpartitioned accesses: place it wholly on a hash-
            # derived home so placement still never depends on arrival.
            home = fallback if fallback is not None else 0
            return RouteDecision(shards=(home,), home=home, cross=False)
        return RouteDecision(
            shards=tuple(sorted(seen)),
            home=owners[0],
            cross=len(seen) > 1,
        )
