"""Schism-style workload-driven data partitioner (Curino et al., VLDB'10).

Schism partitions *data items*: it builds a graph whose nodes are tuples
and whose edges connect tuples co-accessed by a transaction (edge weight
= number of co-accessing transactions), then computes a balanced k-way
min-cut so that transactions touch as few partitions as possible.  Each
transaction executes at the partition holding the plurality of its items;
there is no residual — cross-partition transactions are simply left to
the CC protocol (Section 6.1 of the TSKD paper).

The min-cut here is a greedy label-propagation refinement over the item
graph (METIS stands in the original): items start round-robin by access
rank, then sweep passes move each item to the partition where most of its
co-access weight lives, under a balance cap on per-partition access
weight.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Optional

from ..common.rng import Rng
from ..txn.cost import CostModel
from ..txn.transaction import Transaction
from ..txn.workload import Workload
from .base import PartitionPlan


class SchismPartitioner:
    """Balanced k-way min-cut over the co-access item graph; no residual."""

    name = "schism"
    #: Cross-partition transactions conflict across partitions.
    produces_conflict_free = False

    def __init__(self, balance_slack: float = 0.10, sweeps: int = 3):
        self.balance_slack = balance_slack
        self.sweeps = sweeps

    def partition(
        self,
        workload: Workload,
        k: int,
        cost: Optional[CostModel] = None,
        rng: Optional[Rng] = None,
    ) -> PartitionPlan:
        txns = list(workload)

        # Item access weights and the co-access adjacency, built once.
        weight: Counter = Counter()
        co_access: dict = defaultdict(Counter)
        for t in txns:
            items = sorted(t.access_set, key=repr)
            for item in items:
                weight[item] += 1
            # Star expansion around the hottest item of the transaction
            # keeps the graph linear in the access-set size (full cliques
            # are quadratic), preserving the co-access signal.
            hub = max(items, key=lambda i: weight[i])
            for item in items:
                if item is not hub:
                    co_access[hub][item] += 1
                    co_access[item][hub] += 1

        # Initial placement: deal items round-robin by access rank, so
        # partitions start with equal access weight.
        part_of: dict = {}
        load = [0] * k
        for rank, (item, w) in enumerate(weight.most_common()):
            p = rank % k
            part_of[item] = p
            load[p] += w
        total = sum(weight.values())
        cap = (1.0 + self.balance_slack) * total / max(1, k)

        # Greedy min-cut sweeps: move items toward their co-access mass.
        for _ in range(self.sweeps):
            moved = 0
            for item, neigh in co_access.items():
                votes = Counter()
                for other, w in neigh.items():
                    votes[part_of[other]] += w
                if not votes:
                    continue
                best, _ = votes.most_common(1)[0]
                cur = part_of[item]
                if best != cur and load[best] + weight[item] <= cap:
                    part_of[item] = best
                    load[cur] -= weight[item]
                    load[best] += weight[item]
                    moved += 1
            if moved == 0:
                break

        # Route each transaction to the plurality partition of its items.
        parts: list[list[Transaction]] = [[] for _ in range(k)]
        for t in txns:
            votes = Counter(part_of[item] for item in t.access_set)
            parts[votes.most_common(1)[0][0]].append(t)
        return PartitionPlan(parts=parts, residual=[])
