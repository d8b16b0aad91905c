"""Runtime progress tracking — the lock-free structure of Section 5.

The real TSKD keeps, per thread, an array of transaction IDs plus
``headp``/``tailp`` pointers maintained with C++ atomic builtins; each
slot is written only by its own thread and read by everyone (single
writer, many readers), so readers may observe *slightly stale* progress.
In the simulated engine all metadata updates are already atomic on the
virtual clock, so what this class reproduces is the structure's
*observable contract*:

* ``regPos`` / dispatch maintenance — which transaction each thread is
  currently executing (``headp``) and which it ran previously;
* ``lookup`` — constant-cost random probes into the *predicted write
  sets* of active transactions at other threads, sampled without
  replacement across the (thread, index) space via the same
  reservoir-style draw the paper describes;
* staleness — with probability ``stale_prob`` a probe observes the
  thread's *previous* headp instead of the current one;
* inaccurate access sets — only an ``accuracy`` fraction of each
  transaction's true write set is visible (the Fig 5h knob), since
  predicted access sets "do not have to be exact".

Fault injection (:mod:`repro.faults`) can additionally *corrupt* probes
inside seeded time windows: every observation in the window reads the
thread's previous headp, a forced stale read that stresses TsDEFER's
tolerance of the lock-free structure's weak consistency.  The corruption
hook is consulted only when one is installed, so an un-faulted table
draws exactly the RNG stream it always did.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Optional

from ..common.rng import Rng
from ..txn.operation import Key
from ..txn.transaction import Transaction


class ProgressTable:
    """Per-thread active-transaction slots with probing support."""

    def __init__(
        self,
        num_threads: int,
        rng: Rng,
        stale_prob: float = 0.0,
        accuracy: float = 1.0,
        buffer_reader=None,
    ):
        self.num_threads = num_threads
        self._rng = rng
        self._stale_prob = stale_prob
        self._accuracy = accuracy
        #: Items returned by :meth:`probe` calls (lookup operations run).
        self.probes = 0
        #: Observations that saw a thread's *previous* headp (staleness).
        self.stale_observations = 0
        #: Observations forced stale by an injected corruption window.
        self.corrupted_observations = 0
        #: Optional ``now -> bool`` corruption oracle (FaultInjector.probe_corrupt).
        self._corrupt = None
        self._current: list[Optional[Transaction]] = [None] * num_threads
        self._previous: list[Optional[Transaction]] = [None] * num_threads
        #: Predicted (visible) write set per tid, materialised once.
        self._visible: dict[int, list[Key]] = {}
        #: Per-thread memo of the last probe space built, keyed by the
        #: identity of (observed txn, buffered successor).  Spaces only
        #: change when a thread dispatches/commits or its queue head
        #: moves, so consecutive probes mostly hit.
        self._space_cache: list[Optional[tuple]] = [None] * num_threads
        #: Optional callable thread_id -> upcoming transactions (queue
        #: beyond headp), enabling bounded future probing.
        self._buffer_reader = None
        #: Direct engine-thread view unwrapped from a bound buffer_of
        #: (see bind_buffers); None for generic readers.
        self._threads_view = None
        if buffer_reader is not None:
            self.bind_buffers(buffer_reader)

    def bind_buffers(self, buffer_reader) -> None:
        """Wire the engine's per-thread buffer view for future probing."""
        self._buffer_reader = buffer_reader
        # When the reader is an engine's bound buffer_of, read the
        # thread objects directly: _probe calls the reader once per
        # remote thread per probe, and the method-call round-trip is
        # measurable on that path.  The thread list is fixed for the
        # engine's lifetime; ``.buffer`` is re-read on every access, so
        # per-phase deque replacement stays visible.
        owner = getattr(buffer_reader, "__self__", None)
        self._threads_view = getattr(owner, "_threads", None)

    def bind_corruption(self, corrupt) -> None:
        """Install a ``now -> bool`` probe-corruption oracle (repro.faults)."""
        self._corrupt = corrupt

    # -- maintenance (single writer per slot in the real structure) -----
    def on_dispatch(self, thread_id: int, txn: Transaction, now: int = 0) -> None:
        """headp advanced to ``txn``: it is now active at ``thread_id``."""
        leaving = self._previous[thread_id]
        self._previous[thread_id] = self._current[thread_id]
        self._current[thread_id] = txn
        self._forget(thread_id, leaving)

    def on_commit(self, thread_id: int, txn: Transaction, now: int = 0) -> None:
        """regPos: the active transaction committed."""
        leaving = self._previous[thread_id]
        self._previous[thread_id] = txn
        self._current[thread_id] = None
        self._forget(thread_id, leaving)

    def _forget(self, thread_id: int, leaving: Optional[Transaction]) -> None:
        # Out of both slots, no probe observes it: drop its memo, or a server
        # keeps one per transaction served.  A requeued retry seen again
        # rebuilds an identical entry (the memo is a function of the txn).
        if (leaving is not None and leaving is not self._previous[thread_id]
                and leaving is not self._current[thread_id]):
            self._visible.pop(leaving.tid, None)

    def active(self, thread_id: int) -> Optional[Transaction]:
        return self._current[thread_id]

    # -- probing ---------------------------------------------------------
    def visible_write_set(self, txn: Transaction) -> list[Key]:
        """The predicted write set a probe can see (accuracy-truncated)."""
        got = self._visible.get(txn.tid)
        if got is None:
            # The repr-keyed sort is deterministic per transaction, so
            # it is cached on the transaction itself: the gate and main
            # engines (and repeated runs) build separate tables over the
            # same workload objects and would otherwise re-sort.
            items = txn.__dict__.get("_sorted_write_set")
            if items is None:
                items = sorted(txn.write_set, key=repr)
                txn.__dict__["_sorted_write_set"] = items
            if self._accuracy < 1.0 and items:
                keep = math.ceil(len(items) * self._accuracy)
                # Deterministic per-transaction subset: a fresh stream
                # seeded by tid, so repeated probes agree.
                sub = Rng(txn.tid * 2654435761 % (2**31))
                items = sub.sample(items, keep)
            self._visible[txn.tid] = items
            got = items
        return got

    def _observed_txns(self, j: int, future_depth: int,
                       now: int = 0) -> list[Transaction]:
        """Transactions of thread j a probe may observe (headp onward)."""
        txn = self._current[j]
        # Corruption windows force the stale read *without* consuming a
        # draw from the staleness stream, so runs outside windows (and
        # all runs without an oracle) see the unperturbed stream.
        if self._corrupt is not None and self._corrupt(now):
            txn = self._previous[j]
            self.corrupted_observations += 1
        elif txn is not None and self._rng.chance(self._stale_prob):
            txn = self._previous[j]
            self.stale_observations += 1
        elif txn is None and self._rng.chance(self._stale_prob):
            txn = self._previous[j]
            self.stale_observations += 1
        observed = [] if txn is None else [txn]
        if future_depth > 1 and self._buffer_reader is not None:
            # islice, not list(): the remote buffer is a whole thread's
            # backlog and the window only ever needs its first few items.
            upcoming = self._buffer_reader(j)
            observed.extend(islice(upcoming, future_depth - 1))
        return observed

    def probe(
        self,
        requester: int,
        num_lookups: int,
        scope: str = "global",
        future_depth: int = 1,
        now: int = 0,
    ) -> list[Key]:
        """Perform lookup operations for a thread; returns probed items.

        ``scope="global"`` issues ``num_lookups`` probes total, sampled
        without replacement across the (thread, index) space — the literal
        Section 5 procedure.  ``scope="per_thread"`` issues up to
        ``num_lookups`` probes against each remote thread's observed
        transactions.  ``future_depth`` extends each observation window
        past headp into the remote queue (bounded future probing).

        Items come from *predicted write sets*, so staleness and
        access-set inaccuracy apply in both scopes.
        """
        # One probe space per remote thread: the visible write sets of its
        # observed transactions (headp plus bounded future), so the probe
        # budget does not grow with future_depth.  This is the engine's
        # hottest non-loop path (every TsDEFER dispatch probes every
        # remote thread), so both passes below are hand-inlined versions
        # of :meth:`_observed_txns` / ``random.sample`` with two
        # invariants: the RNG draw stream is bit-identical to the
        # original code (one staleness draw per remote thread first, then
        # the sample draws per non-empty space, in thread order), and the
        # linearised item order matches the old concatenated-list
        # construction without copying keys.
        rng = self._rng
        uniform = rng._r.random
        getrandbits = rng._r.getrandbits
        stale = self._stale_prob
        corrupt = self._corrupt
        current = self._current
        previous = self._previous
        vis_cache = self._visible
        visible_write_set = self.visible_write_set
        reader = self._buffer_reader if future_depth > 1 else None
        threads_view = self._threads_view if reader is not None else None
        # future_depth=2 (the default) needs exactly one queued txn per
        # thread; the engine's buffer view is a deque, so index it
        # instead of building an islice per thread.
        single_future = future_depth == 2

        # Pass 1: staleness draws + space construction, ascending thread.
        # A space is (first_segment, all_segments_or_None, total_len);
        # the single-transaction case (the common one) skips the segment
        # list entirely.  Spaces are memoised per thread on the identity
        # of (observed txn, queue head): they change only when a remote
        # thread dispatches, commits, or consumes its queue, so back-to-
        # back probes reuse the previous construction.
        cache = self._space_cache
        cacheable = reader is None or single_future
        spaces: list[tuple[list[Key], Optional[list[list[Key]]], int]] = []
        spaces_append = spaces.append
        stale_hits = 0
        for j in range(self.num_threads):
            if j == requester:
                continue
            txn = current[j]
            # Corruption forces the stale read without consuming a draw;
            # otherwise exactly one staleness draw happens per remote
            # thread (chance() draws only for 0 < p < 1).
            if corrupt is not None and corrupt(now):
                txn = previous[j]
                self.corrupted_observations += 1
            elif stale > 0.0 and (stale >= 1.0 or uniform() < stale):
                txn = previous[j]
                stale_hits += 1
            if cacheable:
                buf0 = None
                if reader is not None:
                    buf = (threads_view[j].buffer if threads_view is not None
                           else reader(j))
                    if buf:
                        buf0 = buf[0]
                ent = cache[j]
                if ent is not None and ent[0] is txn and ent[1] is buf0:
                    if ent[4]:
                        spaces_append(ent[2])
                    continue
                seg0: Optional[list[Key]] = None
                segments: Optional[list[list[Key]]] = None
                total = 0
                if txn is not None:
                    ws = vis_cache.get(txn.tid)
                    if ws is None:
                        ws = visible_write_set(txn)
                    if ws:
                        seg0 = ws
                        total = len(ws)
                if buf0 is not None:
                    ws = vis_cache.get(buf0.tid)
                    if ws is None:
                        ws = visible_write_set(buf0)
                    if ws:
                        if seg0 is None:
                            seg0 = ws
                        else:
                            segments = [seg0, ws]
                        total += len(ws)
                space = (seg0, segments, total)
                cache[j] = (txn, buf0, space, None, total)
                if total:
                    spaces_append(space)
                continue
            # General window (future_depth > 2): uncached, islice-driven.
            seg0 = None
            segments = None
            total = 0
            if txn is not None:
                ws = vis_cache.get(txn.tid)
                if ws is None:
                    ws = visible_write_set(txn)
                if ws:
                    seg0 = ws
                    total = len(ws)
            # islice, not list(): the remote buffer is a whole thread's
            # backlog; the window needs its head only.
            for nxt in islice(reader(j), future_depth - 1):
                ws = vis_cache.get(nxt.tid)
                if ws is None:
                    ws = visible_write_set(nxt)
                if ws:
                    if seg0 is None:
                        seg0 = ws
                    elif segments is None:
                        segments = [seg0, ws]
                    else:
                        segments.append(ws)
                    total += len(ws)
            if total:
                spaces_append((seg0, segments, total))
        if stale_hits:
            self.stale_observations += stale_hits
        if not spaces:
            return []

        # Pass 2: the sample draws, one batch per space in thread order.
        items: list[Key] = []
        append = items.append
        if scope == "per_thread":
            for seg0, segments, total in spaces:
                k = num_lookups if num_lookups < total else total
                # random.sample's draws, inlined with
                # _randbelow_with_getrandbits unrolled — identical
                # getrandbits consumption, no method-call overhead.
                # k <= 2 (the default num_lookups) needs no pool or
                # selection set at all: both of random.sample's branches
                # reduce to direct index arithmetic on the two draws.
                if 0 < k <= 2:
                    bits = total.bit_length()
                    jdx = getrandbits(bits)
                    while jdx >= total:
                        jdx = getrandbits(bits)
                    if segments is None:
                        append(seg0[jdx])
                    else:
                        idx = jdx
                        for seg in segments:
                            if idx < len(seg):
                                append(seg[idx])
                                break
                            idx -= len(seg)
                    if k == 2:
                        if total <= 21:
                            # Pool branch: after the first swap the only
                            # relocated value is the tail.
                            bound = total - 1
                            bits = bound.bit_length()
                            jdx2 = getrandbits(bits)
                            while jdx2 >= bound:
                                jdx2 = getrandbits(bits)
                            idx = bound if jdx2 == jdx else jdx2
                        else:
                            # Selection-set branch: redraw on collision.
                            while True:
                                jdx2 = getrandbits(bits)
                                while jdx2 >= total:
                                    jdx2 = getrandbits(bits)
                                if jdx2 != jdx:
                                    break
                            idx = jdx2
                        if segments is None:
                            append(seg0[idx])
                        else:
                            for seg in segments:
                                if idx < len(seg):
                                    append(seg[idx])
                                    break
                                idx -= len(seg)
                elif total <= 21 and k <= 5:
                    pool = list(range(total))
                    for i in range(k):
                        bound = total - i
                        bits = bound.bit_length()
                        jdx = getrandbits(bits)
                        while jdx >= bound:
                            jdx = getrandbits(bits)
                        idx = pool[jdx]
                        pool[jdx] = pool[bound - 1]
                        if segments is None:
                            append(seg0[idx])
                        else:
                            for seg in segments:
                                if idx < len(seg):
                                    append(seg[idx])
                                    break
                                idx -= len(seg)
                else:
                    for idx in rng.sample_indices(total, k):
                        if segments is None:
                            append(seg0[idx])
                        else:
                            for seg in segments:
                                if idx < len(seg):
                                    append(seg[idx])
                                    break
                                idx -= len(seg)
            self.probes += len(items)
            return items

        grand_total = sum(total for _, _, total in spaces)
        for linear in rng.sample_indices(grand_total, num_lookups):
            for seg0, segments, total in spaces:
                if linear < total:
                    if segments is None:
                        append(seg0[linear])
                    else:
                        for seg in segments:
                            if linear < len(seg):
                                append(seg[linear])
                                break
                            linear -= len(seg)
                    break
                linear -= total
        self.probes += len(items)
        return items
