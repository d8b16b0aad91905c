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

#: The steps of random.sample's partial shuffle (its pool branch: at
#: most 21 items, k <= 5) by (population, k): ``(bound, bits, last)`` per
#: draw, an index below ``bound`` drawn from ``bits`` random bits.
_SHUFFLES = tuple(
    tuple(tuple((b, b.bit_length(), b - 1) for b in range(n, n - k, -1))
          for k in range(min(n, 5) + 1))
    for n in range(22))


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
        #: Per-thread memos of the last probe space built, as (observed
        #: txn, queue head, flat space): one for fresh observations, one
        #: for stale or corrupted ones, so a stale read does not evict
        #: the fresh space.  Spaces only change when a thread
        #: dispatches/commits or its queue head moves, so consecutive
        #: probes mostly hit.
        self._fresh_spaces: list[tuple] = [
            (None, None, []) for _ in range(num_threads)]
        self._stale_spaces = list(self._fresh_spaces)
        #: Remote threads in ascending order, per requester.
        self._remotes = [tuple(j for j in range(num_threads) if j != r)
                         for r in range(num_threads)]
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
        # One flat probe space per remote thread: the visible write sets of
        # its observed transactions (headp plus bounded future),
        # concatenated, so the probe budget does not grow with
        # future_depth.  This is the engine's hottest non-loop path (every
        # TsDEFER dispatch probes every remote thread), so both passes are
        # hand-inlined versions of the plain construction — one
        # ``rng.chance(stale_prob)`` per remote thread, then
        # ``random.sample`` per space — and draw the identical RNG stream:
        # every staleness draw first, in ascending thread order, then the
        # sample draws per non-empty space, in thread order.
        rng = self._rng
        uniform = rng._r.random
        getrandbits = rng._r.getrandbits
        stale = self._stale_prob
        corrupt = self._corrupt
        current = self._current
        previous = self._previous
        reader = self._buffer_reader if future_depth > 1 else None
        threads_view = self._threads_view if reader is not None else None
        # Pass 1: staleness draws and spaces, ascending thread.  Spaces
        # are memoised per thread on the identity of (observed txn, queue
        # head): they change only when a remote thread dispatches,
        # commits, or consumes its queue, so back-to-back probes mostly
        # reuse the previous list.  future_depth=2 (the default) needs
        # exactly one queued txn per thread, so it indexes the queue head
        # instead of building an islice.
        fresh = self._fresh_spaces
        cacheable = reader is None or future_depth == 2
        spaces: list[list[Key]] = []
        spaces_append = spaces.append
        stale_hits = 0
        for j in self._remotes[requester]:
            txn = current[j]
            memo = fresh
            # Corruption forces the stale read without consuming a draw.
            if corrupt is not None and corrupt(now):
                txn = previous[j]
                memo = self._stale_spaces
                self.corrupted_observations += 1
            elif stale > 0.0 and (stale >= 1.0 or uniform() < stale):
                txn = previous[j]
                memo = self._stale_spaces
                stale_hits += 1
            if cacheable:
                head = None
                if reader is not None:
                    buf = (threads_view[j].buffer if threads_view is not None
                           else reader(j))
                    if buf:
                        head = buf[0]
                ent = memo[j]
                if ent[0] is txn and ent[1] is head:
                    space = ent[2]
                else:
                    space = self._space((txn, head))
                    memo[j] = (txn, head, space)
            else:
                # islice, not list(): the remote buffer is a whole
                # thread's backlog; the window needs its head only.
                space = self._space(
                    (txn, *islice(reader(j), future_depth - 1)))
            if space:
                spaces_append(space)
        if stale_hits:
            self.stale_observations += stale_hits
        if not spaces:
            return []

        if scope != "per_thread":
            items = rng.sample([key for space in spaces for key in space],
                               num_lookups)
            self.probes += len(items)
            return items

        # Pass 2: random.sample's draws per space, with
        # _randbelow_with_getrandbits unrolled — identical getrandbits
        # consumption, no method-call overhead.  Spaces are never
        # mutated: the memo shares them across probes.
        items: list[Key] = []
        append = items.append
        shuffles = _SHUFFLES
        for space in spaces:
            total = len(space)
            k = num_lookups if num_lookups < total else total
            if 0 < k <= 2:
                # Both of random.sample's branches draw the first index
                # the same way, and need no pool or selection set for
                # the second.
                bits = total.bit_length()
                jdx = getrandbits(bits)
                while jdx >= total:
                    jdx = getrandbits(bits)
                append(space[jdx])
                if k == 2:
                    if total <= 21:
                        # Pool branch: after the first swap the only
                        # relocated item is the tail.
                        bound = total - 1
                        bits = bound.bit_length()
                        jdx2 = getrandbits(bits)
                        while jdx2 >= bound:
                            jdx2 = getrandbits(bits)
                        append(space[bound if jdx2 == jdx else jdx2])
                    else:
                        # Selection-set branch: redraw on collision.
                        jdx2 = jdx
                        while jdx2 == jdx:
                            jdx2 = getrandbits(bits)
                            while jdx2 >= total:
                                jdx2 = getrandbits(bits)
                        append(space[jdx2])
            elif total <= 21 and k <= 5:
                # Pool branch: a partial shuffle of a copy.
                pool = space.copy()
                for bound, bits, last in shuffles[total][k]:
                    jdx = getrandbits(bits)
                    while jdx >= bound:
                        jdx = getrandbits(bits)
                    append(pool[jdx])
                    pool[jdx] = pool[last]
            else:
                items += rng._r.sample(space, k)
        self.probes += len(items)
        return items

    def _space(self, observed) -> list[Key]:
        """Concatenated visible write sets of ``observed`` (None skipped)."""
        space: list[Key] = []
        for txn in observed:
            if txn is not None:
                space += self.visible_write_set(txn)
        return space
