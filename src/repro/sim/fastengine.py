"""Flattened fast-path event loop: same simulation, fewer Python cycles.

:class:`FastEngine` subclasses :class:`~repro.sim.engine.MulticoreEngine`
and replaces only :meth:`~repro.sim.engine.MulticoreEngine._drain` — the
inner event loop — with a version built for throughput:

* **Hot-path inlining.**  The operation phase (the vast majority of all
  events) runs inline with every attribute lookup hoisted into locals;
  the rare phases (dispatch, precommit, commit, finish, aborts, faults,
  arrivals) delegate to the parent's handlers, so their semantics can
  never drift from the reference engine.
* **Tuple unpacking.**  An :class:`~repro.txn.operation.Operation` is a
  tuple carrying its record key and write flag from construction, so
  per-access key derivation is one unpack of the operation itself.
* **Batched virtual-clock advance.**  When the next event in the heap is
  strictly later than a thread's next operation completion, that
  operation cannot interleave with anything — the engine advances the
  clock directly and skips the heap round-trip.  The strict inequality
  preserves the reference tie-break (an equal-time event already in the
  heap holds a smaller sequence number and must pop first), and batching
  is disabled outright when a fault plan is enabled, because injected
  faults are polled against the heap minimum between pops.
* **Protocol fast path.**  For plain OCC (exactly ``OccProtocol``, not a
  subclass) the access hook is inlined; every other protocol goes
  through the same ``on_access`` call the reference engine makes.

Equivalence contract: identical RNG draw streams, virtual-clock event
times, fault injection points, trace spans, commit histories, and
therefore byte-identical artifacts.  ``tests/sim/test_engine_differential.py``
enforces this across the full protocol × workload × fault grid, and the
golden digests in ``tests/bench/test_regression_series.py`` pin both
engines to the same Series payloads.

Profiling: a profiled fast run pushes the same section names as the
reference engine (``engine.op``, ``cc.<proto>.access``, ...).  A batched
advance charges its wall time to one ``engine.op`` push and restores the
per-op call count via :meth:`~repro.obs.prof.Profiler.count`, and
virtual-cycle attribution (`add_vcycles`) is per-op identical, so
``docs/perf.md`` tables stay comparable across engines.
"""

from __future__ import annotations

import heapq

from ..cc.base import AccessStatus
from ..cc.occ import OccProtocol
from ..common.config import SimConfig
from ..obs.tracing import TraceEvent
from .engine import MulticoreEngine, _PHASE_SECTIONS


class FastEngine(MulticoreEngine):
    """Drop-in engine with a flattened, batching event loop."""

    def _drain(self, start_time: int) -> int:  # noqa: C901 - deliberate
        events = self._events
        threads = self._threads
        arrival_payload = self._arrival_payload
        heappop = heapq.heappop
        heappush = heapq.heappush
        config = self.config
        protocol = self.protocol
        on_access = protocol.on_access
        read_version = protocol.read_version
        begin = protocol.begin
        tracer = self.tracer
        prof = self.prof
        faults = self.faults
        poll_faults = faults is not None
        # Batched advance would step over the fault poll at the loop head
        # (pop_due against the heap minimum), so an enabled plan pins the
        # loop to the reference one-event-per-op cadence.
        batching = not (poll_faults and faults.enabled)
        op_total = config.op_cost + config.cc_op_overhead
        # Inline the OCC access hook only for exactly OccProtocol; any
        # subclass (Silo, TicToc, ...) overrides behaviour and takes the
        # generic call.  Under a profiler the generic path is kept too so
        # cc.<proto>.access wall time is attributed as in the reference.
        occ_fast = type(protocol) is OccProtocol and prof is None
        versions_get = self.versions.get
        OK = AccessStatus.OK
        ABORT = AccessStatus.ABORT
        sec_access = self._sec_cc_access
        sec_begin = self._sec_cc_begin

        end_time = start_time
        if prof is not None:
            prof.push("engine.loop")
        while events:
            if poll_faults:
                ev = faults.pop_due(events[0][0])
                if ev is not None:
                    self._now = max(ev.when, self._now)
                    if prof is None:
                        self._apply_fault(ev, self._now)
                    else:
                        prof.push("faults.apply")
                        self._apply_fault(ev, self._now)
                        prof.pop()
                    continue
            when, seq, thread_id = heappop(events)
            self._now = when
            if when > end_time:
                end_time = when
            if arrival_payload:
                payload = arrival_payload.pop(seq, None)
                if payload is not None:
                    if prof is None:
                        self._handle_arrival(payload[0], payload[1], when)
                    else:
                        prof.push("engine.arrival")
                        self._handle_arrival(payload[0], payload[1], when)
                        prof.pop()
                    continue
            thread = threads[thread_id]
            if seq != thread.pending_seq:
                continue
            phase = thread.phase
            if phase != "op":
                if prof is None:
                    self._step(thread, when)
                else:
                    prof.push(_PHASE_SECTIONS[phase])
                    self._step(thread, when)
                    prof.pop()
                continue

            # ---- inlined op phase (the hot path) ----------------------
            active = thread.active
            txn = active.txn
            ops = txn.ops
            nops = len(ops)
            now = when
            write_buffer = active.write_buffer
            reads_log = active.reads_log
            observed = active.observed
            if prof is not None:
                prof.push("engine.op")
            while True:
                idx = active.op_index
                if idx == 0 and "_begun" not in active.ctx:
                    # Attempt start: snapshot-taking protocols refresh
                    # here, so a retry never re-reads a stale snapshot.
                    active.ctx["_begun"] = True
                    if prof is None:
                        begin(active, now)
                    else:
                        prof.push(sec_begin)
                        begin(active, now)
                        prof.pop()
                op = ops[idx]
                # Operation is the tuple (kind, table, key, value,
                # record_key, is_write): one unpack, no attribute calls.
                _, _, _, value, key, is_write = op
                if occ_fast:
                    # OccProtocol.on_access, verbatim: record the
                    # committed version at first touch, buffer writes.
                    if key not in observed:
                        observed[key] = versions_get(key, 0)
                    if is_write:
                        write_buffer[key] = value
                else:
                    if prof is None:
                        result = on_access(active, op, now)
                    else:
                        prof.push(sec_access)
                        result = on_access(active, op, now)
                        prof.pop()
                    status = result.status
                    if status is not OK:
                        if status is ABORT:
                            self._abort(thread, now,
                                        reason=result.reason
                                        or "access conflict")
                        else:  # WAIT
                            active.blocked_since = now
                            thread.phase = "blocked"
                            if tracer is not None:
                                tracer.emit(TraceEvent(
                                    now, thread_id, "block", txn.tid,
                                    {"op": idx, "key": repr(key)}))
                        break
                if (not is_write and key not in write_buffer
                        and key not in reads_log):
                    # First read only (repeatable reads, as in DBx1000).
                    # On the OCC fast path the version recorded just
                    # above *is* read_version's answer: a qualifying
                    # first read is always the key's first touch.
                    if occ_fast:
                        reads_log[key] = observed[key]
                    else:
                        reads_log[key] = read_version(active, key)
                if tracer is not None:
                    tracer.emit(TraceEvent(
                        now, thread_id, "op", txn.tid,
                        {"op": idx, "key": repr(key),
                         "rw": "w" if is_write else "r"}))
                active.op_index = idx = idx + 1
                if prof is not None:
                    prof.add_vcycles("engine.op", op_total)
                op_done = now + op_total
                if idx < nops:
                    if batching and (not events or events[0][0] > op_done):
                        # Nothing can interleave before this thread's
                        # next op completes: jump the clock, skip the
                        # heap.  (A tie would pop the other event first,
                        # hence the strict inequality.)
                        self._now = now = op_done
                        if prof is not None:
                            prof.count("engine.op")
                        continue
                    # _schedule, inlined (it runs once per op event).
                    # self._seq is re-read each time because the rare
                    # phases schedule through the parent helpers.
                    seq_new = self._seq + 1
                    self._seq = seq_new
                    thread.pending_seq = seq_new
                    thread.pending_at = op_done
                    heappush(events, (op_done, seq_new, thread_id))
                    break
                bound = active.attempt_start + txn.min_runtime_cycles
                thread.phase = "precommit"
                if op_done < bound:
                    op_done = bound
                seq_new = self._seq + 1
                self._seq = seq_new
                thread.pending_seq = seq_new
                thread.pending_at = op_done
                heappush(events, (op_done, seq_new, thread_id))
                break
            if prof is not None:
                prof.pop()
        if prof is not None:
            prof.pop()
        return end_time


def make_engine(config: SimConfig, **kwargs) -> MulticoreEngine:
    """Construct the engine implementation ``config.engine`` selects."""
    cls = FastEngine if config.engine == "fast" else MulticoreEngine
    return cls(config, **kwargs)
