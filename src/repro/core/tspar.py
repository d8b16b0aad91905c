"""TsPAR — the scheduling module of TSKD (Section 3).

TsPAR wraps a transaction partitioner (or none, for the TSKD[0] mode),
normalises its output into the mutually-conflict-free form Algorithm 1
requires, and runs TSgen:

1. run the partitioner; partitioners that produce no residual (Schism,
   Horticulture) get a residual extracted — "TSKD first extracts a
   residual set ... then carries out the scheduling" (Section 6.1);
2. transactions with unresolved range scans are forced into the residual,
   because partitioners "do not optimize range queries for which
   read/write-sets are not available" (Section 3, Limitations);
3. TSgen refines the plan into RC-free queues plus a (smaller) residual.
"""

from __future__ import annotations

from typing import Optional

from ..common.rng import Rng
from ..partition.base import PartitionPlan, Partitioner, extract_residual
from ..txn.conflict_graph import ConflictGraph
from ..txn.cost import CostModel
from ..txn.workload import Workload
from .schedule import Schedule
from .tsgen import tsgen


class TsPar:
    """Scheduler: partition plan in, transaction schedule out."""

    def __init__(
        self,
        partitioner: Optional[Partitioner] = None,
        residual_order: str = "random",
        check: bool = False,
        tsgen_kwargs: Optional[dict] = None,
    ):
        self.partitioner = partitioner
        self.residual_order = residual_order
        self.check = check
        #: Extra keyword arguments forwarded to tsgen (slack,
        #: fallback_queues, balance_cap, dependencies) — the knobs the
        #: design-choice ablation benchmarks sweep.
        self.tsgen_kwargs = dict(tsgen_kwargs or {})

    def make_plan(
        self,
        workload: Workload,
        k: int,
        cost: CostModel,
        graph: ConflictGraph,
        rng: Rng,
    ) -> PartitionPlan:
        """Produce the normalised (mutually conflict-free) input plan."""
        if self.partitioner is None:
            plan = PartitionPlan(parts=[[] for _ in range(k)],
                                 residual=list(workload))
        else:
            # The partitioner runs exactly as it would stand-alone: it sees
            # access sets, not runtime estimates (cost=None picks its own
            # static model).  Only the scheduling refinement that follows
            # uses the history-based estimates.
            plan = self.partitioner.partition(workload, k, cost=None, rng=rng)
            plan.validate(workload)
        plan = self._demote_range_txns(plan)
        if any(plan.parts) and not getattr(
            self.partitioner, "produces_conflict_free", False
        ):
            extracted = extract_residual(plan.parts, graph)
            plan = PartitionPlan(
                parts=extracted.parts,
                residual=plan.residual + extracted.residual,
            )
        return plan

    def schedule(
        self,
        workload: Workload,
        k: int,
        cost: CostModel,
        graph: Optional[ConflictGraph] = None,
        rng: Optional[Rng] = None,
    ) -> Schedule:
        """Partition (if configured) and refine into a schedule."""
        rng = rng or Rng(0)
        graph = graph or workload.conflict_graph()
        plan = self.make_plan(workload, k, cost, graph, rng)
        return tsgen(
            workload,
            plan,
            cost,
            graph=graph,
            rng=rng,
            residual_order=self.residual_order,
            check=self.check,
            **self.tsgen_kwargs,
        )

    @staticmethod
    def _demote_range_txns(plan: PartitionPlan) -> PartitionPlan:
        """Move transactions with unresolved range scans into the residual."""
        has_range = [
            t for part in plan.parts for t in part if t.has_range
        ]
        if not has_range:
            return plan
        moved = {t.tid for t in has_range}
        return PartitionPlan(
            parts=[[t for t in part if t.tid not in moved] for part in plan.parts],
            residual=plan.residual + has_range,
        )
