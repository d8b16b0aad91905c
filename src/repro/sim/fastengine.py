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

Instrumentation: events go through the same
:class:`~repro.obs.instrument.Instrument` calls as in the reference
engine, and a profiled engine's protocol, filter and rare-phase handlers
are wrapped in their sections at construction, so a profiled fast run
reports the same section names (``engine.op``, ``cc.<proto>.access``,
...).  The inlined op loop is the one place that keeps its own
``engine.op`` accounting: one section push per entry, plus a call count
per batched advance via :meth:`~repro.obs.prof.Profiler.count`, so call
counts and virtual cycles are per-op identical and ``docs/perf.md``
tables stay comparable across engines.
"""

from __future__ import annotations

import heapq

from ..cc.base import AccessStatus
from ..cc.occ import OccProtocol
from ..common.config import SimConfig
from .engine import MulticoreEngine


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
        inst = self.instrument
        prof = inst.prof if inst is not None else None
        faults = self.faults
        poll_faults = faults is not None
        # Batched advance would step over the fault poll at the loop head
        # (pop_due against the heap minimum), so an enabled plan pins the
        # loop to the reference one-event-per-op cadence.
        batching = not (poll_faults and faults.enabled)
        op_total = config.op_cost + config.cc_op_overhead
        # Inline the OCC access hook only for exactly OccProtocol; any
        # subclass (Silo, TicToc, ...) overrides behaviour and takes the
        # generic call.  A profiled engine wrapped on_access in its
        # cc.<proto>.access section, so a wrapped hook is called too.
        occ_fast = (type(protocol) is OccProtocol
                    and "on_access" not in vars(protocol))
        versions_get = self.versions.get
        step = self._step
        OK = AccessStatus.OK
        ABORT = AccessStatus.ABORT

        end_time = start_time
        while events:
            if poll_faults:
                ev = faults.pop_due(events[0][0])
                if ev is not None:
                    self._now = max(ev.when, self._now)
                    self._apply_fault(ev, self._now)
                    continue
            when, seq, thread_id = heappop(events)
            self._now = when
            if when > end_time:
                end_time = when
            if arrival_payload:
                payload = arrival_payload.pop(seq, None)
                if payload is not None:
                    self._handle_arrival(payload[0], payload[1], when)
                    continue
            thread = threads[thread_id]
            if seq != thread.pending_seq:
                continue
            if thread.phase != "op":
                step(thread, when)
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
                    begin(active, now)
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
                    result = on_access(active, op, now)
                    status = result.status
                    if status is not OK:
                        if status is ABORT:
                            self._abort(thread, now,
                                        reason=result.reason
                                        or "access conflict")
                        else:  # WAIT
                            active.blocked_since = now
                            thread.phase = "blocked"
                            if inst is not None:
                                inst.event(now, thread_id, "block", txn.tid,
                                           {"op": idx, "key": repr(key)})
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
                if inst is not None:
                    inst.op(now, thread_id, txn.tid, idx, key, is_write,
                            op_total)
                active.op_index = idx = idx + 1
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
        return end_time


def make_engine(config: SimConfig, **kwargs) -> MulticoreEngine:
    """Construct the engine implementation ``config.engine`` selects."""
    cls = FastEngine if config.engine == "fast" else MulticoreEngine
    return cls(config, **kwargs)
