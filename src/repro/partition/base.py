"""Partitioner interface and the partition-plan type (Section 2.1).

A partition plan is ``(P1, ..., Pk, R)``: k CC-free partitions, each to be
executed serially by a dedicated thread, plus a residual set executed with
CC afterwards.  Partitioners that do not produce a residual (Schism,
Horticulture) return an empty one; :func:`extract_residual` pulls
cross-partition conflicting transactions out afterwards, which is exactly
how the paper feeds their output to TsPAR (Section 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

from ..common.errors import SchedulingError
from ..common.rng import Rng
from ..txn.conflict_graph import ConflictGraph
from ..txn.cost import CostModel
from ..txn.transaction import Transaction
from ..txn.workload import Workload


@dataclass
class PartitionPlan:
    """k CC-free partitions plus a residual set."""

    parts: list[list[Transaction]]
    residual: list[Transaction] = field(default_factory=list)

    @property
    def k(self) -> int:
        return len(self.parts)

    def __len__(self) -> int:
        return sum(len(p) for p in self.parts) + len(self.residual)

    def loads(self, cost: CostModel) -> list[int]:
        """Serial execution time of each partition under a cost model."""
        return [sum(cost.time(t) for t in part) for part in self.parts]

    def imbalance(self, cost: CostModel) -> float:
        """Largest over smallest non-empty partition load."""
        loads = [ld for ld in self.loads(cost) if ld > 0]
        if len(loads) <= 1:
            return 1.0
        return max(loads) / min(loads)

    def part_of(self) -> dict[int, int]:
        """tid -> partition index (residual maps to -1)."""
        out: dict[int, int] = {}
        for i, part in enumerate(self.parts):
            for t in part:
                out[t.tid] = i
        for t in self.residual:
            out[t.tid] = -1
        return out

    def cross_conflicts(self, graph: ConflictGraph) -> int:
        """Number of conflict edges between *different* CC-free partitions."""
        where = self.part_of()
        count = 0
        for i, part in enumerate(self.parts):
            for t in part:
                for other in graph.neighbors(t.tid):
                    j = where.get(other)
                    if j is not None and j >= 0 and j != i and other > t.tid:
                        count += 1
        return count

    def validate(self, workload: Workload) -> None:
        """Check the plan is a disjoint cover of the workload."""
        seen: set[int] = set()
        for part in self.parts:
            for t in part:
                if t.tid in seen:
                    raise SchedulingError(f"transaction {t.tid} appears twice in plan")
                seen.add(t.tid)
        for t in self.residual:
            if t.tid in seen:
                raise SchedulingError(f"transaction {t.tid} in both partition and residual")
            seen.add(t.tid)
        missing = {t.tid for t in workload} - seen
        if missing:
            raise SchedulingError(f"plan drops transactions: {sorted(missing)[:10]}...")


class Partitioner(Protocol):
    """Anything that splits a workload into a :class:`PartitionPlan`."""

    name: str

    def partition(
        self,
        workload: Workload,
        k: int,
        cost: Optional[CostModel] = None,
        rng: Optional[Rng] = None,
    ) -> PartitionPlan: ...


def extract_residual(
    parts: Sequence[Sequence[Transaction]],
    graph: ConflictGraph,
) -> PartitionPlan:
    """Pull cross-partition conflicting transactions into a residual set.

    Greedy max-degree removal: repeatedly move the transaction with the
    most conflicts into *other* partitions until the partitions are
    mutually conflict-free.  This is the preprocessing TSKD applies to
    Schism/Horticulture output, which "first extracts a residual set that
    contains all those transactions that are in conflict with some other
    transactions from another partition" (Section 6.1).
    """
    where: dict[int, int] = {}
    txn_of: dict[int, Transaction] = {}
    for i, part in enumerate(parts):
        for t in part:
            where[t.tid] = i
            txn_of[t.tid] = t

    cross_deg: dict[int, int] = {}
    for tid, i in where.items():
        cross_deg[tid] = sum(
            1 for o in graph.neighbors(tid) if o in where and where[o] != i
        )

    residual_tids: set[int] = set()
    # Lazy max-heap via sort-once + recheck; workloads are bundle-sized.
    import heapq

    heap = [(-d, tid) for tid, d in cross_deg.items() if d > 0]
    heapq.heapify(heap)
    while heap:
        neg_d, tid = heapq.heappop(heap)
        if tid in residual_tids:
            continue
        d = -neg_d
        if cross_deg[tid] != d:  # stale entry
            if cross_deg[tid] > 0:
                heapq.heappush(heap, (-cross_deg[tid], tid))
            continue
        if d <= 0:
            continue
        residual_tids.add(tid)
        i = where.pop(tid)
        cross_deg[tid] = 0
        for o in graph.neighbors(tid):
            if o in where and where[o] != i and cross_deg.get(o, 0) > 0:
                cross_deg[o] -= 1
                if cross_deg[o] > 0:
                    heapq.heappush(heap, (-cross_deg[o], o))

    new_parts: list[list[Transaction]] = [
        [t for t in part if t.tid not in residual_tids] for part in parts
    ]
    residual = [txn_of[tid] for tid in sorted(residual_tids)]
    return PartitionPlan(parts=new_parts, residual=residual)
