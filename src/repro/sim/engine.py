"""Discrete-event simulation of a multicore in-memory transaction engine.

This module replaces the paper's real 32-vCPU DBx1000 deployment (which
Python's GIL cannot reproduce meaningfully) with a virtual-time model that
preserves what the paper's claims are about: operation interleavings,
runtime-conflict windows, aborts/retries, blocking, load balance, and
makespan.

Model
-----
``k`` simulated threads each own a local buffer of transactions
(Section 2.1's workload model).  A thread repeatedly: dispatches the next
transaction (optionally filtered by TsDEFER), executes its operations one
at a time (each costing ``op_cost + cc_op_overhead`` cycles, mediated by
the CC protocol), waits out its runtime-skew lower bound, validates and
installs at commit (``commit_overhead`` cycles), then serves its
commit-time I/O stall.  An abort charges ``abort_penalty`` and hands the
retry schedule to the configured restart policy
(:mod:`repro.faults.policies`); the default ``immediate`` policy is
DBx1000's retry loop, bit-for-bit.

An optional fault injector (:mod:`repro.faults`) interleaves a compiled
timeline of spurious aborts, thread stalls, fail-stop crashes (with
buffer redistribution so no transaction is lost), and I/O latency spikes
into the event loop at virtual-cycle precision.  With no injector — or
an injector over an empty plan — every code path below is cycle- and
RNG-identical to an engine without the faults layer.

All threads share one virtual clock; events are totally ordered, so CC
metadata updates are atomic exactly like the latched critical sections of
a real engine.  Throughput is committed transactions divided by the final
makespan.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol, Sequence

from ..cc import make_protocol
from ..cc.base import AccessStatus, CCProtocol
from ..common.config import SimConfig
from ..common.errors import SimulationError
from ..common.rng import Rng
from ..common.stats import Counters
from ..faults.injector import FaultInjector
from ..faults.plan import FaultEvent
from ..faults.policies import make_policy
from ..obs.instrument import Instrument
from ..storage.database import Database
from ..txn.operation import Key, OpKind
from ..txn.transaction import Transaction

#: Hard cap on per-transaction retries; hitting it means the protocol
#: livelocked, which the test suite treats as a bug.
MAX_RETRIES = 10_000

#: Profiler section of each engine method a profiled engine times:
#: the event loop, arrivals, fault application, aborts, and the phase
#: handler a step event runs.  Protocol calls are timed as
#: ``cc.<proto>.<hook>`` (see ``_CC_SECTIONS``).
_ENGINE_SECTIONS = {
    "_drain": "engine.loop",
    "_handle_arrival": "engine.arrival",
    "_apply_fault": "faults.apply",
    "_abort": "engine.abort",
    "_do_dispatch": "engine.dispatch",
    "_do_op": "engine.op",
    "_do_precommit": "engine.precommit",
    "_do_commit": "engine.commit",
    "_do_finish": "engine.finish",
}

#: CC protocol hook -> the last part of its ``cc.<proto>.*`` section.
_CC_SECTIONS = {"begin": "begin", "on_access": "access",
                "pre_commit": "precommit", "on_commit": "validate",
                "install": "install", "cleanup": "cleanup"}


@dataclass
class ActiveTxn:
    """Mutable per-attempt execution state of the transaction a thread runs."""

    txn: Transaction
    thread_id: int
    #: Stable timestamp for wait-die ordering: first-dispatch sequence number.
    ts: int
    attempt: int = 0
    op_index: int = 0
    attempt_start: int = 0
    dispatched_at: int = 0
    observed: dict[Key, int] = field(default_factory=dict)
    write_buffer: dict[Key, object] = field(default_factory=dict)
    held_locks: set[Key] = field(default_factory=set)
    ctx: dict = field(default_factory=dict)
    #: Versions observed by *reads* this attempt, for the history log.
    reads_log: dict[Key, int] = field(default_factory=dict)
    blocked_since: int = 0

    def reset_attempt(self, now: int) -> None:
        self.op_index = 0
        self.attempt_start = now
        self.observed.clear()
        self.write_buffer.clear()
        self.ctx.clear()
        self.reads_log.clear()


@dataclass(frozen=True)
class CommittedRecord:
    """History entry for one committed transaction (isolation oracles)."""

    tid: int
    commit_time: int
    reads: tuple[tuple[Key, int], ...]
    writes: tuple[tuple[Key, int], ...]
    #: When the committing attempt began (its snapshot instant, for
    #: multi-version protocols).
    start_time: int = 0


class DispatchFilter(Protocol):
    """TsDEFER's hook: inspect the next transaction before it runs.

    Returns ``(defer, cost_cycles)``; when ``defer`` is true the engine
    moves the transaction to the back of the thread's buffer.  A filter
    may also define ``bind(engine)``, which the engine calls once at
    construction (as it calls ``protocol.bind``).
    """

    def filter(self, thread_id: int, txn: Transaction, now: int) -> tuple[bool, int]: ...


class ProgressHooks(Protocol):
    """Progress-table maintenance callbacks (regPos analog)."""

    def on_dispatch(self, thread_id: int, txn: Transaction, now: int) -> None: ...

    def on_commit(self, thread_id: int, txn: Transaction, now: int) -> None: ...


class DispatchGate(Protocol):
    """Precedence gate for enforced schedule execution.

    ``ready`` is consulted before a transaction is dispatched; a blocked
    thread parks until the gate wakes it (the gate learns about commits
    via its ProgressHooks role and calls the engine's ``wake_gated``).
    """

    def ready(self, txn: Transaction) -> bool: ...

    def block(self, thread_id: int, txn: Transaction) -> None: ...


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of one :meth:`MulticoreEngine.run` call."""

    start_time: int
    end_time: int
    counters: Counters
    thread_busy: tuple[int, ...]
    #: Per-transaction service latency in cycles (dispatch to completion,
    #: including retries and commit stalls; deferral wait is queueing
    #: time, not service time, and is excluded).
    latencies: tuple[int, ...] = ()
    #: Per-committed-transaction retry count (aborted attempts before the
    #: one that committed), in completion order — the raw data behind the
    #: retry-count distribution histogram.
    retry_counts: tuple[int, ...] = ()

    @property
    def makespan(self) -> int:
        return self.end_time - self.start_time


def merge_phase_results(results: Sequence[PhaseResult]) -> PhaseResult:
    """Fold consecutive phase results into one aggregate result.

    Used wherever one logical unit of work spans several ``run`` calls on
    the same engine — a TsPAR queue phase followed by its residual phase,
    or a serving epoch executed against a persistent database
    (:mod:`repro.serve.pipeline`).  Counters, latencies, and per-thread
    busy cycles accumulate; the window spans first start to last end.
    """
    if not results:
        raise SimulationError("merge_phase_results needs at least one result")
    counters = Counters()
    busy = [0] * len(results[0].thread_busy)
    latencies: list[int] = []
    retry_counts: list[int] = []
    for r in results:
        if len(r.thread_busy) != len(busy):
            raise SimulationError(
                f"cannot merge phases over {len(r.thread_busy)} and "
                f"{len(busy)} threads")
        counters.merge(r.counters)
        latencies.extend(r.latencies)
        retry_counts.extend(r.retry_counts)
        for i, b in enumerate(r.thread_busy):
            busy[i] += b
    return PhaseResult(
        start_time=results[0].start_time,
        end_time=max(r.end_time for r in results),
        counters=counters,
        thread_busy=tuple(busy),
        latencies=tuple(latencies),
        retry_counts=tuple(retry_counts),
    )


class _Thread:
    __slots__ = ("id", "buffer", "phase", "active", "busy", "dispatch_began",
                 "pending_seq", "pending_at", "crash_pending")

    def __init__(self, thread_id: int):
        self.id = thread_id
        self.buffer: deque[Transaction] = deque()
        self.phase = "idle"
        self.active: Optional[ActiveTxn] = None
        self.busy = 0
        self.dispatch_began = 0
        #: Sequence number of this thread's one outstanding step event;
        #: a popped event with a different seq was superseded by a fault
        #: (stall reschedule, injected abort, crash) and is ignored.
        self.pending_seq = -1
        self.pending_at = 0
        #: A crash fired past the commit point; fail stop after install.
        self.crash_pending = False


class MulticoreEngine:
    """The simulated k-core transaction execution engine."""

    def __init__(
        self,
        config: SimConfig,
        protocol: CCProtocol | None = None,
        db: Database | None = None,
        dispatch_filter: Optional[DispatchFilter] = None,
        progress_hooks: Optional[ProgressHooks] = None,
        record_history: bool = False,
        apply_writes: bool = True,
        dispatch_gate: "Optional[DispatchGate]" = None,
        versions: Optional[dict] = None,
        history: Optional[list] = None,
        faults: Optional[FaultInjector] = None,
        instrument: Optional[Instrument] = None,
    ):
        self.config = config
        self.db = db if db is not None else Database()
        self.protocol = protocol if protocol is not None else make_protocol(config.cc)
        self.dispatch_filter = dispatch_filter
        self.progress_hooks = progress_hooks
        self.record_history = record_history
        self.apply_writes = apply_writes and db is not None
        #: Optional tracer/profiler hook (repro.obs.instrument).  Every
        #: event site is one ``is not None`` test and the instrument never
        #: touches the clock or any RNG stream, so an instrumented run is
        #: bit-identical to a bare one.
        self.instrument = instrument
        #: Precedence gate for enforced CC-free execution (optional).
        self.dispatch_gate = dispatch_gate
        #: Shared committed-version store (one word per key); pass an
        #: existing dict to continue another engine's version lineage
        #: (e.g. an enforced queue phase followed by a CC residual phase).
        self.versions: dict[Key, int] = versions if versions is not None else {}
        #: Committed-transaction log; pass a list to share it across the
        #: engines of a multi-engine execution.
        self.history: list[CommittedRecord] = history if history is not None else []
        self.protocol.bind(self)

        self._threads = [_Thread(i) for i in range(config.num_threads)]
        #: Named jitter stream consumed *only* by restart decisions: two
        #: transactions that abort each other in lockstep would otherwise
        #: retry in lockstep forever (deterministic symmetric livelock,
        #: which real engines break with randomised backoff).  Nothing
        #: else may draw from it — in particular fault injection draws
        #: all of its randomness at plan-compile time — so injecting a
        #: fault can never shift a later transaction's backoff.
        self._restart_rng = Rng(config.seed * 61 + 29)
        #: What an aborted transaction does next (SimConfig.restart_policy).
        self.restart_policy = make_policy(config.restart_policy, config,
                                          self._restart_rng, engine=self)
        #: Optional fault-timeline cursor (repro.faults); an injector over
        #: an empty plan is inert and leaves the run byte-identical.
        self.faults = faults
        self._events: list[tuple[int, int, int]] = []
        self._seq = 0
        self._txn_seq = 0
        self._now = 0
        self._counters = Counters()
        self._latencies: list[int] = []
        self._retry_counts: list[int] = []
        self._arrival_payload: dict[int, tuple[int, Transaction]] = {}
        self._arrived_at: dict[int, int] = {}
        #: tid -> attempt count carried across a requeue (crash recovery
        #: or a defer_coldest migration), so retry statistics survive the
        #: move to another thread's buffer.
        self._carry_attempts: dict[int, int] = {}
        if instrument is not None:
            # Under a profiler, collaborator calls run inside their
            # sections from here on; without one nothing is wrapped.
            cc = self.protocol.name
            instrument.wrap(self.protocol, **{
                hook: f"cc.{cc}.{part}"
                for hook, part in _CC_SECTIONS.items()})
            instrument.wrap(self, **_ENGINE_SECTIONS)
            if dispatch_filter is not None:
                instrument.wrap(dispatch_filter, filter="tsdefer.filter")
        if dispatch_filter is not None and hasattr(dispatch_filter, "bind"):
            # TsDEFER wires its progress table to this engine's buffers,
            # fault windows and profiler (TsDefer.bind).
            dispatch_filter.bind(self)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def num_threads(self) -> int:
        return self.config.num_threads

    def active_txn(self, thread_id: int) -> Optional[ActiveTxn]:
        """The transaction thread ``thread_id`` is currently executing."""
        return self._threads[thread_id].active

    def buffer_of(self, thread_id: int) -> deque:
        return self._threads[thread_id].buffer

    def wake_thread(self, thread_id: int, now: int) -> None:
        """Resume a lock-blocked thread (called by pessimistic protocols)."""
        thread = self._threads[thread_id]
        if thread.phase != "blocked":
            return
        waited = now - thread.active.blocked_since
        self._counters.blocked_cycles += waited
        if self.instrument is not None:
            self.instrument.event(now, thread_id, "wake",
                                  thread.active.txn.tid, {"waited": waited})
        thread.phase = "op"
        self._schedule(now, thread_id)

    def run(
        self,
        buffers: Sequence[Iterable[Transaction]],
        start_time: int = 0,
        arrivals: Sequence[tuple[int, int, Transaction]] = (),
    ) -> PhaseResult:
        """Execute one phase: per-thread buffers to completion.

        ``buffers`` must have exactly ``num_threads`` entries (empty ones
        are fine).  ``arrivals`` optionally injects transactions over
        time — ``(time, thread_id, txn)`` tuples appended to the thread's
        buffer when the virtual clock reaches ``time`` (the open-system
        mode; see :mod:`repro.sim.stream`).  Latency for arriving
        transactions is measured from their arrival instant, so it
        includes queueing delay.

        Returns the phase's makespan and counters; engine state (storage,
        versions, CC words, history) persists across phases so a TsPAR
        queue phase can be followed by a residual phase.
        """
        if len(buffers) != self.num_threads:
            raise SimulationError(
                f"expected {self.num_threads} buffers, got {len(buffers)}"
            )
        self._now = start_time
        self._counters = Counters()
        self._latencies: list[int] = []
        self._retry_counts: list[int] = []
        self._arrival_payload: dict[int, tuple[int, Transaction]] = {}
        self._arrived_at: dict[int, int] = {}
        self._carry_attempts = {}
        for thread, txns in zip(self._threads, buffers):
            thread.buffer = deque(txns)
            thread.phase = "dispatch"
            thread.busy = 0
            thread.active = None
            thread.crash_pending = False
            self._schedule(start_time, thread.id)
        for when, thread_id, txn in arrivals:
            if when < start_time:
                raise SimulationError(
                    f"arrival at {when} precedes phase start {start_time}"
                )
            self._seq += 1
            self._arrival_payload[self._seq] = (thread_id, txn)
            self._arrived_at[txn.tid] = when
            heapq.heappush(self._events, (when, self._seq, thread_id))

        end_time = self._drain(start_time)

        stuck = [t for t in self._threads if t.phase in ("blocked", "gated")]
        if stuck:
            raise SimulationError(
                f"threads {[t.id for t in stuck]} still "
                f"{self._threads[stuck[0].id].phase} at end of phase"
            )
        return PhaseResult(
            start_time=start_time,
            end_time=end_time,
            counters=self._counters,
            thread_busy=tuple(t.busy for t in self._threads),
            latencies=tuple(self._latencies),
            retry_counts=tuple(self._retry_counts),
        )

    def _drain(self, start_time: int) -> int:
        """Pop events until the heap is empty; return the last event time.

        This is the engine's entire inner loop, factored out so that
        :class:`repro.sim.fastengine.FastEngine` can substitute a
        flattened implementation while inheriting setup, teardown, and
        every per-phase handler unchanged.
        """
        end_time = start_time
        while self._events:
            # Lazily interleave the fault timeline: fire every injected
            # fault stamped at or before the next engine event.  Faults
            # stamped after the run's last event never fire, so an
            # injector cannot stretch the makespan by itself.
            if self.faults is not None:
                ev = self.faults.pop_due(self._events[0][0])
                if ev is not None:
                    self._now = max(ev.when, self._now)
                    self._apply_fault(ev, self._now)
                    continue
            when, seq, thread_id = heapq.heappop(self._events)
            self._now = when
            end_time = max(end_time, when)
            payload = self._arrival_payload.pop(seq, None)
            if payload is not None:
                self._handle_arrival(payload[0], payload[1], when)
            else:
                thread = self._threads[thread_id]
                # A mismatched seq means this event was superseded by a
                # fault; with no faults the single-outstanding-event
                # invariant makes the guard a no-op.
                if seq == thread.pending_seq:
                    self._step(thread, when)
        return end_time

    # ------------------------------------------------------------------
    # event machinery
    # ------------------------------------------------------------------
    def _schedule(self, when: int, thread_id: int) -> None:
        self._seq += 1
        thread = self._threads[thread_id]
        thread.pending_seq = self._seq
        thread.pending_at = when
        heapq.heappush(self._events, (when, self._seq, thread_id))

    def _requeue(self, when: int, thread_id: int, txn: Transaction) -> None:
        """Inject ``txn`` as an arrival on ``thread_id`` at time ``when``."""
        self._seq += 1
        self._arrival_payload[self._seq] = (thread_id, txn)
        heapq.heappush(self._events, (max(when, self._now), self._seq, thread_id))

    def _step(self, thread: _Thread, now: int) -> None:
        phase = thread.phase
        if phase == "dispatch":
            self._do_dispatch(thread, now)
        elif phase == "op":
            self._do_op(thread, now)
        elif phase == "precommit":
            self._do_precommit(thread, now)
        elif phase == "commit":
            self._do_commit(thread, now)
        elif phase == "finish":
            self._do_finish(thread, now)
        elif phase in ("idle", "blocked", "gated", "crashed"):
            pass  # spurious wakeup; nothing to do
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown thread phase {phase!r}")

    def _handle_arrival(self, thread_id: int, txn: Transaction, now: int) -> None:
        thread = self._threads[thread_id]
        if thread.phase == "crashed":
            # The target failed after this arrival was queued; divert to
            # the coldest survivor so the transaction is never lost.
            survivors = [t for t in self._threads if t.phase != "crashed"]
            if not survivors:
                raise SimulationError(
                    f"arrival for crashed thread {thread_id} with no "
                    f"surviving threads at cycle {now}")
            thread = min(survivors, key=lambda t: (t.busy, t.id))
        thread.buffer.append(txn)
        if thread.phase == "idle":
            thread.phase = "dispatch"
            self._schedule(now, thread.id)

    def wake_gated(self, thread_id: int, now: int) -> None:
        """Resume a thread parked on the dispatch gate."""
        thread = self._threads[thread_id]
        if thread.phase != "gated":
            return
        thread.phase = "dispatch"
        self._schedule(now, thread_id)

    def _do_dispatch(self, thread: _Thread, now: int) -> None:
        if not thread.buffer:
            thread.phase = "idle"
            return
        if self.dispatch_gate is not None and not self.dispatch_gate.ready(
            thread.buffer[0]
        ):
            thread.phase = "gated"
            self.dispatch_gate.block(thread.id, thread.buffer[0])
            return
        txn = thread.buffer.popleft()
        cost = self.config.dispatch_cost
        filter_cost = None
        if self.dispatch_filter is not None:
            defer, filter_cost = self.dispatch_filter.filter(
                thread.id, txn, now)
            cost += filter_cost
            if defer and thread.buffer:
                thread.buffer.append(txn)
                self._counters.deferrals += 1
                thread.busy += cost
                if self.instrument is not None:
                    self.instrument.defer(now, thread.id, txn.tid, cost,
                                          filter_cost)
                self._schedule(now + cost, thread.id)
                return
        self._txn_seq += 1
        active = ActiveTxn(txn=txn, thread_id=thread.id, ts=self._txn_seq,
                           dispatched_at=now)
        if self._carry_attempts:
            # A requeued retry (crash recovery / defer_coldest migration)
            # keeps its abort count so retry statistics stay truthful.
            active.attempt = self._carry_attempts.pop(txn.tid, 0)
        active.attempt_start = now + cost
        thread.active = active
        thread.dispatch_began = now
        thread.phase = "op"
        if self.progress_hooks is not None:
            self.progress_hooks.on_dispatch(thread.id, txn, now)
        if self.instrument is not None:
            self.instrument.dispatch(now, thread.id, txn.tid, active.ts,
                                     len(txn.ops), cost, filter_cost)
        self._schedule(now + cost, thread.id)

    def _do_op(self, thread: _Thread, now: int) -> None:
        active = thread.active
        if active.op_index == 0 and "_begun" not in active.ctx:
            # Attempt start: snapshot-taking protocols refresh here, so a
            # retry never re-reads from a stale snapshot.
            active.ctx["_begun"] = True
            self.protocol.begin(active, now)
        op = active.txn.ops[active.op_index]
        result = self.protocol.on_access(active, op, now)
        if result.status is AccessStatus.ABORT:
            self._abort(thread, now, reason=result.reason or "access conflict")
            return
        if result.status is AccessStatus.WAIT:
            active.blocked_since = now
            thread.phase = "blocked"
            if self.instrument is not None:
                self.instrument.event(
                    now, thread.id, "block", active.txn.tid,
                    {"op": active.op_index, "key": repr(op.record_key)})
            return
        key = op.record_key
        if (not op.is_write and key not in active.write_buffer
                and key not in active.reads_log):
            # First read only: repeated reads return the transaction's
            # buffered copy (repeatable reads, as in DBx1000), so the
            # version observed first is the one the transaction saw.
            # Multi-version protocols report their snapshot's version.
            active.reads_log[key] = self.protocol.read_version(active, key)
        op_cycles = self.config.op_cost + self.config.cc_op_overhead
        if self.instrument is not None:
            self.instrument.op(now, thread.id, active.txn.tid,
                               active.op_index, key, op.is_write, op_cycles)
        active.op_index += 1
        op_done = now + op_cycles
        if active.op_index < len(active.txn.ops):
            self._schedule(op_done, thread.id)
        else:
            # Runtime-skew lower bound: the transaction's logic takes at
            # least this long, so a retry re-executes (and re-pays) it —
            # which is precisely why "longer transactions inflict larger
            # conflict penalties" (Section 6.2).
            bound = active.attempt_start + active.txn.min_runtime_cycles
            thread.phase = "precommit"
            self._schedule(max(op_done, bound), thread.id)

    def _do_precommit(self, thread: _Thread, now: int) -> None:
        ok = self.protocol.pre_commit(thread.active, now)
        if self.instrument is not None:
            # A failed pre-commit aborts: no commit work to charge.
            self.instrument.event(now, thread.id, "validate",
                                  thread.active.txn.tid, {},
                                  "engine.commit" if ok else None,
                                  self.config.commit_overhead)
        if not ok:
            self._abort(thread, now, reason="pre-commit lock conflict")
            return
        thread.phase = "commit"
        self._schedule(now + self.config.commit_overhead, thread.id)

    def _do_commit(self, thread: _Thread, now: int) -> None:
        active = thread.active
        ok = self.protocol.on_commit(active, now)
        if not ok:
            self._abort(thread, now, reason="validation failed")
            return
        # Validation passed: install atomically at this instant.
        if self.record_history:
            reads = tuple(sorted(active.reads_log.items(), key=lambda kv: repr(kv[0])))
        self.protocol.install(active, now)
        if self.apply_writes:
            self._apply_writes(active)
        if self.record_history:
            writes = tuple(
                sorted(((k, self.versions.get(k, 0)) for k in active.write_buffer),
                       key=lambda kv: repr(kv[0]))
            )
            self.history.append(
                CommittedRecord(active.txn.tid, now, reads, writes,
                                start_time=active.attempt_start)
            )
        self._counters.committed += 1
        thread.phase = "finish"
        stall = active.txn.io_delay_cycles
        if self.faults is not None:
            stall += self.faults.io_extra(now)
        if self.instrument is not None:
            self.instrument.event(now, thread.id, "commit", active.txn.tid,
                                  {"writes": len(active.write_buffer)},
                                  "engine.finish", stall)
        self._schedule(now + stall, thread.id)

    def _do_finish(self, thread: _Thread, now: int) -> None:
        active = thread.active
        # Strict through the commit stall: locks release only now.
        self.protocol.cleanup(active, True, now)
        if self.progress_hooks is not None:
            self.progress_hooks.on_commit(thread.id, active.txn, now)
        if self.faults is not None:
            self.faults.note_recovery(thread.id, now)
        thread.busy += now - thread.dispatch_began
        born = self._arrived_at.get(active.txn.tid, active.dispatched_at)
        latency = now - born
        self._latencies.append(latency)
        self._retry_counts.append(active.attempt)
        if self.instrument is not None:
            self.instrument.event(now, thread.id, "finish", active.txn.tid,
                                  {"attempts": active.attempt,
                                   "latency": latency})
        thread.active = None
        thread.phase = "dispatch"
        if thread.crash_pending:
            # A crash fired while this transaction was past its commit
            # point; the install completed, now the thread fail-stops.
            thread.crash_pending = False
            self._crash_now(thread, now)
            return
        self._schedule(now, thread.id)

    def _abort(self, thread: _Thread, now: int, reason: str = "") -> None:
        active = thread.active
        self.protocol.cleanup(active, False, now)
        self._counters.aborts += 1
        self._counters.wasted_cycles += now - active.attempt_start
        active.attempt += 1
        if active.attempt > MAX_RETRIES:
            raise SimulationError(
                f"transaction {active.txn} exceeded {MAX_RETRIES} retries"
            )
        decision = self.restart_policy.on_abort(active, now)
        restart = decision.restart_at
        target = decision.requeue_thread
        migrate = target is not None and target != thread.id
        if self.instrument is not None:
            attrs = {"attempt": active.attempt, "reason": reason,
                     "restart": restart}
            if target is not None:
                attrs["requeue"] = target
            # A migrating retry pays no restart wait on this thread.
            self.instrument.event(now, thread.id, "abort", active.txn.tid,
                                  attrs, "engine.abort",
                                  0 if migrate else max(0, restart - now))
        if migrate:
            # Migrate the retry: the transaction travels to the target
            # thread's buffer with its attempt count and birth time, and
            # this thread moves on to its next buffered transaction.
            self._carry_attempts[active.txn.tid] = active.attempt
            self._arrived_at.setdefault(active.txn.tid, active.dispatched_at)
            if self.faults is not None:
                self.faults.retarget_recovery(thread.id, target)
            thread.busy += now - thread.dispatch_began
            thread.active = None
            thread.phase = "dispatch"
            self._requeue(restart, target, active.txn)
            self._schedule(now, thread.id)
            return
        active.reset_attempt(restart)
        thread.phase = "op"
        self._schedule(restart, thread.id)

    # ------------------------------------------------------------------
    # fault application (repro.faults)
    # ------------------------------------------------------------------
    def _apply_fault(self, ev: FaultEvent, now: int) -> None:
        target = self._threads[ev.thread] if ev.thread >= 0 else None
        tid = (target.active.txn.tid
               if target is not None and target.active is not None else -1)
        if ev.kind == "spurious_abort":
            applied = self._fault_abort(target, now)
        elif ev.kind == "stall":
            applied = self._fault_stall(target, now, ev.duration)
        elif ev.kind == "crash":
            applied = self._fault_crash(target, now)
        else:
            # Windowed kinds (io_spike, probe_corruption) apply passively
            # through io_extra() / probe_corrupt() point queries.
            applied = True
        self.faults.record(ev, applied, now)
        if self.instrument is not None:
            self.instrument.event(now, max(ev.thread, 0), "fault", tid,
                                  {"fault": ev.kind, "applied": applied,
                                   "duration": ev.duration})

    def _fault_abort(self, thread: _Thread, now: int) -> bool:
        """Poison whatever ``thread`` is executing; it retries as usual."""
        active = thread.active
        if active is None or thread.phase not in ("op", "blocked", "precommit"):
            return False
        if thread.phase == "blocked":
            # Leave the lock's waiter queue *before* cleanup releases our
            # held locks, so a grant can never pick the aborted waiter.
            cancel = getattr(self.protocol, "cancel_wait", None)
            if cancel is not None:
                cancel(active, active.txn.ops[active.op_index])
            self._counters.blocked_cycles += now - active.blocked_since
        self._abort(thread, now, reason="injected: spurious abort")
        return True

    def _fault_stall(self, thread: _Thread, now: int, duration: int) -> bool:
        """Delay the thread's next step by ``duration`` cycles."""
        if thread.phase in ("idle", "blocked", "gated", "crashed"):
            return False
        self._schedule(thread.pending_at + duration, thread.id)
        return True

    def _fault_crash(self, thread: _Thread, now: int) -> bool:
        """Fail-stop ``thread`` for the remainder of the phase."""
        if thread.phase == "crashed":
            return False
        if thread.phase in ("commit", "finish"):
            # Past the commit point: the install is already durable in
            # this model, so let it complete and fail stop right after
            # (otherwise a committed transaction would re-execute).
            thread.crash_pending = True
            return True
        self._crash_now(thread, now)
        return True

    def _crash_now(self, thread: _Thread, now: int) -> None:
        survivors = [t for t in self._threads
                     if t.id != thread.id and t.phase != "crashed"]
        if not survivors:
            raise SimulationError(
                f"fault plan crashed every thread by cycle {now}")
        survivors.sort(key=lambda t: (t.busy, t.id))
        active = thread.active
        if active is not None:
            if thread.phase == "blocked":
                cancel = getattr(self.protocol, "cancel_wait", None)
                if cancel is not None:
                    cancel(active, active.txn.ops[active.op_index])
                self._counters.blocked_cycles += now - active.blocked_since
            # Crash cleanup is fault application, timed as faults.apply:
            # the class's method bypasses a profiler's cleanup wrapper.
            type(self.protocol).cleanup(self.protocol, active, False, now)
            self._counters.aborts += 1
            self._counters.wasted_cycles += now - active.attempt_start
            active.attempt += 1
            self._carry_attempts[active.txn.tid] = active.attempt
            self._arrived_at.setdefault(active.txn.tid, active.dispatched_at)
            thread.busy += now - thread.dispatch_began
            # The in-flight transaction restarts on the coldest survivor
            # after the abort penalty; buffered ones move immediately.
            if self.faults is not None:
                self.faults.retarget_recovery(thread.id, survivors[0].id)
            self._requeue(now + self.config.abort_penalty, survivors[0].id,
                          active.txn)
            thread.active = None
        moved = list(thread.buffer)
        thread.buffer.clear()
        for i, txn in enumerate(moved):
            self._requeue(now, survivors[i % len(survivors)].id, txn)
        thread.phase = "crashed"
        thread.pending_seq = -1

    def _apply_writes(self, active: ActiveTxn) -> None:
        inserted = {
            op.record_key for op in active.txn.ops if op.kind is OpKind.INSERT
        }
        for key, value in active.write_buffer.items():
            if key in inserted:
                table, pk = key
                t = self.db.table(table)
                if pk in t:
                    t.get(pk).committed_write(value, active.txn.tid)
                else:
                    t.insert(pk, value, writer_tid=active.txn.tid)
            else:
                self.db.ensure(key).committed_write(value, active.txn.tid)
