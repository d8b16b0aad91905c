"""TSKD — the facade combining TsPAR and TsDEFER (Section 3, Fig. 2).

TSKD sits between the transaction-to-thread assignment module and the
execution engine.  :meth:`TSKD.prepare` turns a workload into an
*execution plan*: one or two phases of per-thread buffers (the RC-free
queues, then the residual), plus the TsDEFER filter to install on the
engine.  The five deployed instances of Section 6.1 are available via
:meth:`TSKD.instance`:

==========  =====================================================
TSKD[S]     TsPAR over the Strife partitioner + TsDEFER
TSKD[C]     TsPAR over Schism + TsDEFER
TSKD[H]     TsPAR over Horticulture + TsDEFER
TSKD[0]     TsPAR with no input partitioning (all-residual) + TsDEFER
TSKD[CC]    TsDEFER only, over the engine's round-robin assignment
==========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..common.config import TSDEFER_DISABLED, TsDeferConfig
from ..common.errors import ConfigError
from ..common.rng import Rng
from ..partition import Partitioner, make_partitioner
from ..sim.engine import PhaseResult
from ..txn.conflicts import IsolationLevel
from ..txn.cost import CostModel
from ..txn.transaction import Transaction
from ..txn.workload import Workload, split_round_robin
from .schedule import Schedule
from .tsdefer import TsDefer
from .tspar import TsPar


@dataclass
class ExecutionPlan:
    """Phases of per-thread buffers the engine should run in order."""

    phases: list[list[list[Transaction]]]
    schedule: Optional[Schedule] = None

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    def total_transactions(self) -> int:
        return sum(len(buf) for phase in self.phases for buf in phase)


class TSKD:
    """The TSKD tool: scheduling + proactive deferment, non-intrusively."""

    def __init__(
        self,
        partitioner: Union[Partitioner, str, None] = None,
        use_tspar: bool = True,
        tsdefer: TsDeferConfig = TsDeferConfig(),
        residual_order: str = "random",
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
        check: bool = False,
        residual_assign: str = "round_robin",
        tsgen_kwargs: Optional[dict] = None,
        queue_execution: str = "cc",
    ):
        if isinstance(partitioner, str):
            partitioner = make_partitioner(partitioner)
        self.partitioner = partitioner
        self.use_tspar = use_tspar
        self.tsdefer_config = tsdefer
        self.isolation = isolation
        #: How the unscheduled residual is dealt to threads: "round_robin"
        #: (the paper's default) or "component" (conflict-connected groups
        #: to the same thread; helps when components are small).
        self.residual_assign = residual_assign
        #: How the RC-free queues execute: "cc" (the paper's evaluated
        #: configuration — CC + TsDEFER as the safety net for estimate
        #: error) or "enforced" (CC-free with the scheduled order upheld
        #: by dependency gating; see repro.core.enforced).
        if queue_execution not in ("cc", "enforced"):
            raise ConfigError(
                f"queue_execution must be 'cc' or 'enforced', got "
                f"{queue_execution!r}"
            )
        self.queue_execution = queue_execution
        self.tspar = TsPar(partitioner, residual_order=residual_order,
                           check=check, tsgen_kwargs=tsgen_kwargs)

    # -- the paper's named instances -------------------------------------
    _INSTANCES = {
        "S": dict(partitioner="strife", use_tspar=True),
        "C": dict(partitioner="schism", use_tspar=True),
        "H": dict(partitioner="horticulture", use_tspar=True),
        "0": dict(partitioner=None, use_tspar=True),
        "CC": dict(partitioner=None, use_tspar=False),
    }

    @classmethod
    def instance(cls, which: str, tsdefer: TsDeferConfig = TsDeferConfig(),
                 **kw) -> "TSKD":
        """Build one of the paper's instances: S, C, H, 0, or CC."""
        spec = cls._INSTANCES.get(which.upper() if which != "0" else "0")
        if spec is None:
            raise ConfigError(
                f"unknown TSKD instance {which!r}; known: {sorted(cls._INSTANCES)}"
            )
        return cls(tsdefer=tsdefer, **spec, **kw)

    @property
    def name(self) -> str:
        if not self.use_tspar:
            return "TSKD[CC]"
        if self.partitioner is None:
            return "TSKD[0]"
        tag = {"strife": "S", "schism": "C", "horticulture": "H"}.get(
            self.partitioner.name, self.partitioner.name
        )
        return f"TSKD[{tag}]"

    # -- planning ---------------------------------------------------------
    def prepare(
        self,
        workload: Workload,
        k: int,
        cost: CostModel,
        rng: Optional[Rng] = None,
    ) -> ExecutionPlan:
        """Compute the execution plan for a bundled workload.

        With TsPAR enabled: phase 1 runs the RC-free queues in schedule
        order; phase 2 (when a residual remains) spreads the residual
        round-robin over all threads, executed with CC + TsDEFER.
        Without TsPAR: the input plan itself — round-robin for TSKD[CC]
        and DBCC, the partitioner's parts then its residual otherwise.
        """
        rng = rng or Rng(0)
        if not self.use_tspar:
            if self.partitioner is None:
                # TSKD[CC]: the engine's own lightweight assignment.
                return ExecutionPlan(phases=[split_round_robin(list(workload), k)])
            # The partitioner's own plan, as it would run stand-alone: it
            # sees access sets only, not cost estimates.
            plan = self.partitioner.partition(workload, k, cost=None, rng=rng)
            plan.validate(workload)
            phases = [[list(p) for p in plan.parts]]
            if plan.residual:
                phases.append(split_round_robin(plan.residual, k))
            return ExecutionPlan(phases=phases)
        graph = workload.conflict_graph(self.isolation)
        schedule = self.tspar.schedule(workload, k, cost, graph=graph, rng=rng)
        phases = [[list(q) for q in schedule.queues]]
        if schedule.residual:
            if self.residual_assign == "component":
                phases.append(
                    self._assign_residual(schedule.residual, k, cost, graph)
                )
            else:
                phases.append(split_round_robin(schedule.residual, k))
        return ExecutionPlan(phases=phases, schedule=schedule)

    @staticmethod
    def _assign_residual(residual, k: int, cost, graph) -> list[list[Transaction]]:
        """Thread assignment for the unscheduled residual.

        Conflict-connected residual transactions are dealt to the same
        thread (so they serialise instead of colliding) and the resulting
        groups are LPT-packed by estimated cost; singletons fill the
        gaps.  This is one of the "other lightweight transaction-to-thread
        assignment methods" Section 3 permits in place of round-robin, and
        it matters because the residual is by construction the most
        conflict-dense slice of the workload.
        """
        tids = {t.tid for t in residual}
        parent: dict[int, int] = {t.tid: t.tid for t in residual}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for t in residual:
            for o in graph.neighbors(t.tid):
                if o in tids:
                    parent[find(o)] = find(t.tid)
        groups: dict[int, list[Transaction]] = {}
        for t in residual:
            groups.setdefault(find(t.tid), []).append(t)

        buffers: list[list[Transaction]] = [[] for _ in range(k)]
        loads = [0] * k
        weighted = sorted(
            groups.values(),
            key=lambda g: -sum(cost.time(t) for t in g),
        )
        for group in weighted:
            i = min(range(k), key=loads.__getitem__)
            buffers[i].extend(group)
            loads[i] += sum(cost.time(t) for t in group)
        return buffers

    def make_filter(self, k: int, rng: Optional[Rng] = None) -> Optional[TsDefer]:
        """Instantiate the TsDEFER filter for a k-thread engine (or None)."""
        if not self.tsdefer_config.enabled:
            return None
        return TsDefer(self.tsdefer_config, k, rng or Rng(1), isolation=self.isolation)


def execute_phases(engine, phases, start_time: int = 0) -> list[PhaseResult]:
    """Run phases of per-thread buffers on ``engine``, back to back.

    The one loop that executes a plan.  The engine persists across calls
    — database, committed versions, CC metadata — so successive epochs
    execute against one continuously-evolving store exactly like
    successive bundles hit a live system; each phase starts where the
    previous one ended on the virtual clock.
    """
    results = []
    for buffers in phases:
        results.append(engine.run(buffers, start_time=start_time))
        start_time = results[-1].end_time
    return results


def tskd_disabled_variant(base: TSKD, *, tspar: bool, tsdefer: bool) -> TSKD:
    """Ablation helper: clone ``base`` with modules switched on/off.

    Used by the Fig 4j experiment (TsPAR[x] vs TsDEFER[x] vs full TSKD).
    """
    return TSKD(
        partitioner=base.partitioner,
        use_tspar=tspar,
        tsdefer=base.tsdefer_config if tsdefer else TSDEFER_DISABLED,
        isolation=base.isolation,
    )
