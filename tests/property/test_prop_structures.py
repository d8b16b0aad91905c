"""Property-based tests on core data structures: lock table, indexes,
zipfian draws, and residual extraction."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import LockMode, LockTable
from repro.common.rng import Rng, ZipfianGenerator
from repro.partition.base import extract_residual
from repro.storage import OrderedIndex
from repro.txn import ConflictGraph, make_transaction, read, write


class TestLockTableProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                              st.booleans()), max_size=25))
    def test_exclusive_holder_is_always_alone(self, requests):
        """After any sequence of try_acquire calls, an X-held lock has one
        holder, and S-held locks never include an exclusive owner."""
        lt = LockTable()
        key = ("t", 0)
        exclusive_owner = None
        sharers = set()
        for thread, wants_x in requests:
            mode = LockMode.EXCLUSIVE if wants_x else LockMode.SHARED
            got = lt.try_acquire(key, thread, mode)
            holders = lt.holders(key)
            if got and wants_x:
                assert holders == {thread}
            assert holders  # something holds after any successful grant
        # Internal invariant: if mode is X, exactly one holder.
        state = lt.state(key)
        if state.mode is LockMode.EXCLUSIVE:
            assert len(state.holders) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1,
                    max_size=8, unique=True))
    def test_release_grants_make_progress(self, waiters):
        lt = LockTable()
        key = ("t", 0)
        assert lt.try_acquire(key, 0, LockMode.EXCLUSIVE)
        for t in waiters:
            lt.enqueue(key, t, LockMode.EXCLUSIVE)
        woken = lt.release_all(0, {key})
        assert [t for t, _ in woken] == [waiters[0]]  # FIFO head granted


class TestOrderedIndexProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-100, max_value=100), unique=True),
           st.integers(min_value=-100, max_value=100),
           st.integers(min_value=-100, max_value=100))
    def test_range_matches_filter(self, keys, lo, hi):
        idx = OrderedIndex()
        for k in keys:
            idx.add(k)
        expected = sorted(k for k in keys if lo <= k <= hi)
        assert idx.range(lo, hi) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), unique=True,
                    min_size=1),
           st.integers(min_value=0, max_value=50))
    def test_min_ge_is_correct(self, keys, probe):
        idx = OrderedIndex()
        for k in keys:
            idx.add(k)
        candidates = [k for k in keys if k >= probe]
        assert idx.min_ge(probe) == (min(candidates) if candidates else None)


class TestZipfianProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=2, max_value=5_000),
           st.floats(min_value=0.1, max_value=0.99),
           st.integers(min_value=0, max_value=1_000))
    def test_draws_always_in_domain(self, n, theta, seed):
        gen = ZipfianGenerator(n, round(theta, 3), Rng(seed))
        for _ in range(50):
            v = gen.next()
            assert 0 <= v < n


class TestResidualExtractionProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                              st.booleans()),
                    min_size=2, max_size=16),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=30))
    def test_extraction_clears_all_cross_edges(self, specs, k, seed):
        txns = [
            make_transaction(i, [write("t", key) if is_w else read("t", key)])
            for i, (key, is_w) in enumerate(specs)
        ]
        graph = ConflictGraph(txns)
        rng = Rng(seed)
        parts = [[] for _ in range(k)]
        for t in txns:
            parts[rng.randint(0, k - 1)].append(t)
        plan = extract_residual(parts, graph)
        assert plan.cross_conflicts(graph) == 0
        kept = {t.tid for p in plan.parts for t in p}
        kept |= {t.tid for t in plan.residual}
        assert kept == {t.tid for t in txns}
