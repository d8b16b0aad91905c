"""Horticulture-style skew-aware partitioner (Pavlo et al., SIGMOD'12).

The paper describes Horticulture as "hard-coded for TPC-C and YCSB
workloads, and ... not a full-fledged partitioner" (Section 6.1).  This
implementation follows that description:

* **TPC-C** — partition by home warehouse (the canonical TPC-C design
  Horticulture's search converges to): transaction -> ``w_id % k``.
  Cross-warehouse transactions stay with their home warehouse, so the
  partitions are *not* conflict-free; CC (or residual extraction, when
  TSKD wraps it) handles the cross traffic.
* **YCSB** — skew-aware key placement: rank keys by observed access
  frequency in the bundle and deal them round-robin by rank, which
  spreads hot keys across cores instead of clustering them; each
  transaction then follows the plurality of its keys.

Transactions without a recognised template fall back to the YCSB path.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Optional

from ..common.rng import Rng
from ..txn.cost import CostModel
from ..txn.transaction import Transaction
from ..txn.workload import Workload
from .base import PartitionPlan

#: Templates routed via the TPC-C home-warehouse rule.
_TPCC_TEMPLATES = frozenset(
    {"NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel"}
)


class HorticulturePartitioner:
    """Skew-aware, benchmark-hard-coded partitioning; no residual."""

    name = "horticulture"
    #: Cross-warehouse transactions conflict across partitions.
    produces_conflict_free = False

    def partition(
        self,
        workload: Workload,
        k: int,
        cost: Optional[CostModel] = None,
        rng: Optional[Rng] = None,
    ) -> PartitionPlan:
        parts: list[list[Transaction]] = [[] for _ in range(k)]
        generic: list[Transaction] = []
        for t in workload:
            if t.template in _TPCC_TEMPLATES and "w_id" in t.params:
                parts[int(t.params["w_id"]) % k].append(t)
            else:
                generic.append(t)
        if generic:
            self._place_by_key_rank(generic, parts, k)
        return PartitionPlan(parts=parts, residual=[])

    @staticmethod
    def _place_by_key_rank(txns: list[Transaction], parts, k: int) -> None:
        freq: Counter = Counter()
        for t in txns:
            freq.update(t.access_set)
        owner: dict = {}
        for rank, (key, _count) in enumerate(freq.most_common()):
            owner[key] = rank % k
        loads = [len(p) for p in parts]
        for t in txns:
            votes: dict[int, int] = defaultdict(int)
            for key in t.access_set:
                votes[owner[key]] += 1
            top = max(votes.values())
            candidates = [p for p, v in votes.items() if v == top]
            # Break plurality ties toward the lighter partition.
            part = min(candidates, key=lambda p: loads[p])
            parts[part].append(t)
            loads[part] += 1
