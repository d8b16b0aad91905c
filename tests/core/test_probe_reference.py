"""``ProgressTable.probe`` against the plain construction it hand-inlines.

The reference below builds each remote thread's probe space the obvious
way: one staleness draw per remote thread in ascending order, the
observed transactions (headp, then the queue window), their visible
write sets concatenated, then ``random.sample``.  The table must return
the same items, keep the same counters and leave its generator in the
same state after every call, across the whole knob grid.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import islice, product

import pytest

from repro.common.rng import Rng
from repro.core.progress_table import ProgressTable
from repro.txn import make_transaction, read, write

THREADS = 5
STEPS = 60


class _Thread:
    def __init__(self):
        self.buffer: deque = deque()


class _Engine:
    """Just enough of an engine for ``bind_buffers``' direct thread view."""

    def __init__(self, buffers):
        self._threads = [_Thread() for _ in buffers]
        for t, buf in zip(self._threads, buffers):
            t.buffer = buf

    def buffer_of(self, j):
        return self._threads[j].buffer


def _txns(seed: int) -> list:
    gen = random.Random(seed)
    out = []
    for tid in range(1, 80):
        # 0 to 14 writes: two queued 14-write sets pass the 21-item
        # partial-shuffle cutover of random.sample.
        n = gen.choice((0, 1, 2, 3, 5, 8, 11, 14))
        keys = gen.sample(range(200), n)
        ops = [write("t", k) for k in keys] or [read("t", 0)]
        out.append(make_transaction(tid, ops))
    return out


def _corrupt(now: int) -> bool:
    return now % 7 < 2


def reference_probe(table: ProgressTable, buffers, requester, num_lookups,
                    scope, future_depth, now):
    """The plain construction: observed txns -> write sets -> sample."""
    rng = table._rng
    spaces = []
    for j in range(table.num_threads):
        if j == requester:
            continue
        txn = table._current[j]
        if table._corrupt is not None and table._corrupt(now):
            txn = table._previous[j]
            table.corrupted_observations += 1
        elif rng.chance(table._stale_prob):
            txn = table._previous[j]
            table.stale_observations += 1
        observed = [] if txn is None else [txn]
        if future_depth > 1:
            observed.extend(islice(buffers[j], future_depth - 1))
        space = [key for t in observed for key in table.visible_write_set(t)]
        if space:
            spaces.append(space)
    if scope == "per_thread":
        items = [key for space in spaces
                 for key in rng.sample(space, num_lookups)]
    else:
        items = rng.sample([key for space in spaces for key in space],
                           num_lookups)
    table.probes += len(items)
    return items


def _counters(table):
    return (table.probes, table.stale_observations,
            table.corrupted_observations, table._rng._r.getstate())


GRID = list(product(("per_thread", "global"), (0, 1, 2, 3, 5, 8, 30),
                    (1, 2, 3), (0.0, 0.05, 1.0), (1.0, 0.5), (False, True)))


@pytest.mark.parametrize(
    "scope,num_lookups,future_depth,stale,accuracy,corrupted", GRID)
def test_probe_matches_reference(scope, num_lookups, future_depth, stale,
                                 accuracy, corrupted):
    seed = GRID.index((scope, num_lookups, future_depth, stale, accuracy,
                       corrupted))
    txns = _txns(seed)
    buffers = [deque() for _ in range(THREADS)]
    for i, t in enumerate(txns):
        buffers[i % THREADS].append(t)
    tables = []
    for _ in range(2):
        table = ProgressTable(THREADS, Rng(seed), stale_prob=stale,
                              accuracy=accuracy)
        if corrupted:
            table.bind_corruption(_corrupt)
        tables.append(table)
    fast, ref = tables
    # Odd grid points read the queues through a plain function, even ones
    # through an engine's bound buffer_of (the direct thread view).
    fast.bind_buffers(_Engine(buffers).buffer_of if seed % 2 == 0
                      else buffers.__getitem__)
    ref.bind_buffers(buffers.__getitem__)

    events = random.Random(seed + 1)
    for now in range(STEPS):
        j = events.randrange(THREADS)
        move = events.random()
        if move < 0.3 and buffers[j]:
            t = buffers[j].popleft()
            for table in tables:
                table.on_dispatch(j, t, now)
        elif move < 0.45 and fast.active(j) is not None:
            t = fast.active(j)
            for table in tables:
                table.on_commit(j, t, now)
        got = fast.probe(j, num_lookups, scope=scope,
                         future_depth=future_depth, now=now)
        want = reference_probe(ref, buffers, j, num_lookups, scope,
                               future_depth, now)
        assert got == want, now
        assert _counters(fast) == _counters(ref), now
