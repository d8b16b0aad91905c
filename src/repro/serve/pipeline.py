"""The deterministic epoch executor behind every serving shard.

:class:`EpochExecutor` is synchronous and deterministic.  It owns the
long-lived state of one shard of a running service: one TSKD instance,
one persistent :class:`~repro.storage.database.Database`, one engine
whose virtual clock, version store, and TsDEFER filter carry across
epochs, and one history cost model fed by noise-free dry-run costs.
Given the same epoch compositions it produces bit-identical schedules
and final database state no matter how the wall clock sliced the input
— this is what the batch-equivalence tests in ``tests/serve`` lean on,
via :func:`replay_epochs`.  A shard (:mod:`repro.serve.shard`) runs
:meth:`EpochExecutor.schedule` then :meth:`EpochExecutor.execute` on
one thread, one epoch at a time, in epoch-id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..common.config import ExperimentConfig, ServeConfig
from ..common.rng import Rng
from ..core.tskd import TSKD, ExecutionPlan, execute_phases
from ..obs.instrument import Instrument
from ..sim.engine import MulticoreEngine, PhaseResult, merge_phase_results
from ..sim.fastengine import make_engine
from ..sim.stream import assign_least_loaded
from ..storage.database import Database
from ..sim.warmup import dry_run_cost
from ..txn.cost import HistoryCostModel, OpCountCostModel
from ..txn.transaction import Transaction
from ..txn.workload import Workload

#: Systems a serving executor accepts: TSKD instances with CC-backed
#: queue execution, or plain dbcc as the no-scheduling baseline.  Bare
#: partitioners are bundle baselines for the batch runner only, and
#: enforced ("!") variants run their queue phase on a second, CC-free
#: engine (repro.bench.runner), which cannot share a persistent store.
SERVABLE_SYSTEMS = ("dbcc", "tskd-s", "tskd-c", "tskd-h", "tskd-0", "tskd-cc")


def make_servable_system(spec: str) -> TSKD:
    """Resolve a system spec into a TSKD usable for continuous serving."""
    from ..bench.runner import as_tskd, make_system

    system = make_system(spec)
    if not isinstance(system, (TSKD, str)):  # a bare partitioner
        raise ValueError(
            f"system {spec!r} is not servable; choose from {SERVABLE_SYSTEMS}"
        )
    # DBCC (round-robin + CC, nothing else) becomes a TSKD with both
    # modules off, so the serving path is uniform.
    system = as_tskd(system)
    if system.queue_execution != "cc":
        raise ValueError(
            "enforced queue execution cannot serve a persistent store; "
            "drop the '!' suffix"
        )
    return system


@dataclass
class EpochOutcome:
    """What execution of one epoch produced."""

    epoch_id: int
    #: tid -> attempts (1 = committed first try).
    attempts: dict[int, int]
    result: PhaseResult
    start_cycles: int
    end_cycles: int

    @property
    def committed(self) -> int:
        return len(self.attempts)

    @property
    def aborts(self) -> int:
        return self.result.counters.aborts


class _CommitLog:
    """Progress hook that records per-transaction commit attempts."""

    def __init__(self):
        self._engine: Optional[MulticoreEngine] = None
        self.attempts: dict[int, int] = {}

    def bind(self, engine: MulticoreEngine) -> None:
        self._engine = engine

    def on_dispatch(self, thread_id: int, txn: Transaction, now: int) -> None:
        pass

    def on_commit(self, thread_id: int, txn: Transaction, now: int) -> None:
        # ActiveTxn.attempt counts *aborted* attempts (0 = clean first
        # try); the wire reports total tries, so +1.
        active = self._engine.active_txn(thread_id)
        self.attempts[txn.tid] = (active.attempt + 1) if active is not None else 1

    def drain(self) -> dict[int, int]:
        out, self.attempts = self.attempts, {}
        return out


class EpochExecutor:
    """Deterministic schedule/execute core shared by server and replay."""

    def __init__(self, serve: ServeConfig, exp: ExperimentConfig, db=None,
                 tracer=None):
        self.serve = serve
        self.exp = exp
        self.k = exp.sim.num_threads
        self.tskd = make_servable_system(serve.system)
        self.cost = HistoryCostModel(fallback=OpCountCostModel(exp.sim))
        self.commit_log = _CommitLog()
        #: The persistent store every epoch commits into.  Callers may
        #: hand in a pre-populated database; otherwise tables are created
        #: on first reference (rows then appear at first committed write,
        #: the engine's usual lazy-ensure path).
        self.db = db if db is not None else Database()
        tsdefer = self.tskd.make_filter(self.k, rng=Rng(exp.seed).fork(3))
        from ..predict.policy import fan_out, make_policy

        #: Online adaptive policy (repro.predict), or None for a static
        #: server.  When present it observes commits via the hook fanout,
        #: steers TsPAR through tsgen's ``heat`` hook, and retunes the
        #: TsDEFER filter at each epoch boundary.
        self.policy = make_policy(exp.predict, exp.seed)
        if self.policy is not None:
            self.policy.install(self.tskd, tsdefer)
        #: Optional span sink: engine events stream into it across every
        #: epoch, and execute() adds one "epoch" event per epoch so the
        #: Chrome exporter can draw the epoch track (repro trace --chrome).
        self.engine = make_engine(
            exp.sim,
            db=self.db,
            dispatch_filter=tsdefer,
            progress_hooks=fan_out(tsdefer, self.policy, self.commit_log),
            instrument=Instrument.of(tracer),
        )
        self.commit_log.bind(self.engine)
        self.tsdefer = tsdefer
        #: Virtual-clock cursor: each epoch starts where the last ended.
        self.clock = 0

    # -- stage 1: scheduling (cost model + TsPAR + RNG only) ------------
    def schedule(self, txns: Sequence[Transaction], epoch_id: int) -> ExecutionPlan:
        """Prepare one epoch's execution plan; deterministic per epoch."""
        workload = Workload(list(txns), name=f"epoch-{epoch_id}")
        # Feed the history model the same noise-free dry-run estimates a
        # warm-up pass would have produced, so replay sees identical
        # costs regardless of when each epoch arrived.
        for t in txns:
            self.cost.record(t, dry_run_cost(t, self.exp.sim))
        rng = Rng(self.exp.seed).fork(epoch_id)
        plan = self.tskd.prepare(workload, self.k, self.cost, rng=rng)
        if self.serve.assignment == "least_loaded":
            self._rebalance(plan)
        return plan

    def _rebalance(self, plan: ExecutionPlan) -> None:
        """Swap round-robin-dealt phases for least-loaded packing.

        Only phases TSKD itself dealt round-robin are rebalanced: the
        single phase of a no-TsPAR plan, or the residual phase of a
        scheduled plan.  RC-free queues carry a precedence order and are
        never touched.
        """
        target = None
        if plan.schedule is None:
            target = 0
        elif plan.num_phases > 1:
            target = 1
        if target is None:
            return
        txns = [t for buf in plan.phases[target] for t in buf]
        plan.phases[target] = assign_least_loaded(
            txns, self.k, load=self.cost.time
        )

    # -- stage 2: execution (engine + database + TsDEFER only) -----------
    def execute(
        self,
        plan: ExecutionPlan,
        epoch_id: int,
        canonical: Optional[Sequence[Transaction]] = None,
    ) -> EpochOutcome:
        """Run a prepared epoch against the persistent store.

        After the engine finishes, each written key is reconciled to the
        *canonical commit order* — ``canonical`` when given (the agreed
        order of a cross-shard epoch), tid-ascending within the epoch
        otherwise.  Every admitted transaction commits (the engine
        retries aborts to completion), so the canonical last writer's
        value is always a committed value and the version counter — one
        bump per committed write — is order-invariant.  This makes the
        final database state a pure function of *which transactions ran
        in which epoch slices*, not of scheduling interleavings: slicing
        an epoch across shards and replaying it whole land on identical
        state (see docs/sharding.md).
        """
        # Table creation is an execute-stage mutation (db is this stage's
        # state); ordered tables throughout so range ops always work.
        for phase in plan.phases:
            for buf in phase:
                for txn in buf:
                    for op in txn.ops:
                        if op.table not in self.db:
                            self.db.create_table(op.table, ordered=True)
        start = self.clock
        result = merge_phase_results(
            execute_phases(self.engine, plan.phases, start_time=start))
        self.clock = result.end_time
        if canonical is None:
            canonical = sorted(
                (t for phase in plan.phases for buf in phase for t in buf),
                key=lambda t: t.tid,
            )
        self._install_canonical(canonical)
        if self.engine.instrument is not None:
            # Stamped at the epoch's end cycle so the span log's clock
            # stays monotone (engine events of this epoch precede it).
            self.engine.instrument.event(
                result.end_time, 0, "epoch", -1,
                {"epoch": epoch_id, "start_cycles": start,
                 "committed": len(self.commit_log.attempts),
                 "aborts": result.counters.aborts})
        if self.policy is not None:
            dispatched = sum(len(buf) for phase in plan.phases
                             for buf in phase)
            self.policy.end_epoch(self.tsdefer,
                                  aborts=result.counters.aborts,
                                  dispatched=dispatched)
        return EpochOutcome(
            epoch_id=epoch_id,
            attempts=self.commit_log.drain(),
            result=result,
            start_cycles=start,
            end_cycles=result.end_time,
        )

    def execute_serial(
        self, txns: Sequence[Transaction], epoch_id: int
    ) -> EpochOutcome:
        """Run a cross-shard slice serially in the given agreed order.

        Cross-shard epochs bypass scheduling: the coordinator already
        fixed a global order (``Rng(seed).fork(epoch_id)``), and every
        participant executes its slice on one thread in exactly that
        order — deterministic commits with no 2PC and no aborts to
        resolve.  The single-buffer plan leaves the cost model untouched
        (only :meth:`schedule` feeds it), so single-shard scheduling is
        unaffected by how much cross traffic interleaves.
        """
        ordered = list(txns)
        plan = ExecutionPlan(
            phases=[[ordered] + [[] for _ in range(self.k - 1)]]
        )
        return self.execute(plan, epoch_id, canonical=ordered)

    def _install_canonical(self, order: Sequence[Transaction]) -> None:
        """Reconcile written records to the canonical last writer."""
        for txn in order:
            for op in txn.ops:
                if not op.is_write:
                    continue
                table = self.db.table(op.table)
                if op.key in table:
                    record = table.get(op.key)
                    record.value = op.value
                    record.last_writer = txn.tid

    # -- inspection -------------------------------------------------------
    def database_state(self) -> dict:
        """Flat ``(table, key) -> (value, version, last_writer)`` map."""
        state = {}
        for table in self.engine.db.tables():
            for key in table.keys():
                record = table.get(key)
                state[(table.name, key)] = (
                    record.value, record.version, record.last_writer
                )
        return state


def state_digest(
    req_ids: Sequence[int],
    db_state: dict,
    tid_to_req: Optional[dict[int, int]] = None,
) -> str:
    """Canonical digest of a serving run's observable outcome.

    Covers the committed request ids and the final database state with
    last-writer tids rewritten to request ids (``tid_to_req``).  Server
    tids depend on arrival order under concurrent clients, so raw tids
    differ run-to-run even when the *logical* outcome is identical; in
    request-id space the digest is comparable across topologies
    (``--shards 1`` vs ``--shards N``) and across runs.
    """
    from ..common.hashing import config_hash

    mapping = tid_to_req or {}
    return config_hash({
        "commits": sorted(req_ids),
        "db": {
            key: [value, version, mapping.get(last_writer, last_writer)]
            for key, (value, version, last_writer) in db_state.items()
        },
    })


def replay_epochs(
    serve: ServeConfig,
    exp: ExperimentConfig,
    epochs: Sequence[Sequence[Transaction]],
) -> tuple[EpochExecutor, list[EpochOutcome]]:
    """Run epoch compositions through a fresh executor, batch style.

    This is the reference run for serve-vs-batch equivalence: a server
    that closed the same epochs must report the same commits and leave an
    identical database behind.
    """
    executor = EpochExecutor(serve, exp)
    outcomes = []
    for epoch_id, txns in enumerate(epochs):
        plan = executor.schedule(txns, epoch_id)
        outcomes.append(executor.execute(plan, epoch_id))
    return executor, outcomes


@dataclass
class EpochSpan:
    """Wall-clock trace of one epoch's trip through the server.

    The schedule and execute windows are what the shard measured around
    the two calls (``ShardEpochResult``); for a cross-shard epoch they
    span all of its slices.
    """

    epoch_id: int
    size: int
    reason: str
    opened_at: float
    closed_at: float
    sched_start: float
    sched_end: float
    exec_start: float
    exec_end: float
    start_cycles: int
    end_cycles: int
    committed: int
    aborts: int
    #: Executing shard, or -1 for a cross-shard epoch.
    shard: int
    cross: bool
    tids: Optional[list[int]] = None

    def to_dict(self) -> dict:
        doc = {
            "epoch": self.epoch_id,
            "size": self.size,
            "reason": self.reason,
            "opened_at": round(self.opened_at, 6),
            "closed_at": round(self.closed_at, 6),
            "sched_start": round(self.sched_start, 6),
            "sched_end": round(self.sched_end, 6),
            "exec_start": round(self.exec_start, 6),
            "exec_end": round(self.exec_end, 6),
            "start_cycles": self.start_cycles,
            "end_cycles": self.end_cycles,
            "committed": self.committed,
            "aborts": self.aborts,
            "shard": self.shard,
            "cross": self.cross,
        }
        if self.tids is not None:
            doc["tids"] = self.tids
        return doc


@dataclass
class TxnOutcome:
    """Per-transaction result handed back to the submitting connection."""

    tid: int
    epoch_id: int
    attempts: int
    queue_s: float
    schedule_s: float
    execute_s: float
    #: "committed", or "rejected" when the owning shard died before the
    #: epoch executed (fail-stop path; see repro.serve.server).
    status: str
    #: The transaction's home shard.
    shard: int
    #: True when the transaction spanned shards (epoch-aligned commit).
    cross_shard: bool
