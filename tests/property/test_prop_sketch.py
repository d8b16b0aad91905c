"""Properties of the predictor's decayed count-min sketch.

The adaptive layer is only sound if the sketch honours the count-min
contract (estimates never undercount, so a "cold" verdict is trustworthy),
tracks every genuinely hot key (no false negatives in the candidate set),
decays monotonically, and produces bit-identical estimates across
processes and hash seeds — the cross-shard merge and the reproducibility
guarantee both hang off that last one.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import fnv_hash64
from repro.predict import sketch as sketch_module
from repro.predict.sketch import (
    CANDIDATE_MIN,
    DecayedCountMinSketch,
    key_fingerprint,
)

# Record keys as the workloads produce them: small ints (YCSB rows) and
# the occasional composite key.  A narrow domain forces collisions inside
# the 64-cell test geometry, which is exactly what the over-estimation
# property needs to exercise.
keys = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.tuples(st.integers(min_value=0, max_value=8),
              st.integers(min_value=0, max_value=8)),
)

streams = st.lists(keys, max_size=120)


def _small_sketch(**overrides) -> DecayedCountMinSketch:
    params = dict(width=64, depth=3, decay=0.5, seed=7, hot_capacity=16)
    params.update(overrides)
    return DecayedCountMinSketch(**params)


class TestOverEstimation:
    @given(streams)
    @settings(max_examples=150)
    def test_estimate_never_undercounts(self, stream):
        sk = _small_sketch()
        sk.update_many(stream)
        true = Counter(stream)
        for key, count in true.items():
            assert sk.estimate(key) >= count

    @given(streams, st.lists(st.integers(0, 119), max_size=6))
    @settings(max_examples=100)
    def test_estimate_never_undercounts_with_interleaved_decay(
            self, stream, decay_points):
        """Decay applies uniformly, so the decayed true count — each
        update discounted by the decays that followed it — stays a lower
        bound on the estimate."""
        sk = _small_sketch()
        cuts = set(decay_points)
        decayed_true: Counter = Counter()
        for i, key in enumerate(stream):
            sk.update(key)
            decayed_true[key] += 1.0
            if i in cuts:
                sk.decay()
                for k in decayed_true:
                    decayed_true[k] *= sk.decay_factor
        # The zero-snap floor (1e-9) only ever *lowers* cells, but a cell
        # snapped to zero had decayed true count below 1e-9 too.
        for key, count in decayed_true.items():
            assert sk.estimate(key) >= count - 1e-9


class TestHotKeyTracking:
    @given(st.lists(st.integers(min_value=0, max_value=5),
                    min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_no_false_negatives_for_hot_keys(self, stream):
        """Every key whose count reaches CANDIDATE_MIN must be tracked —
        the domain (6 keys) is within hot_capacity, so nothing is ever
        evicted and 'hot but unreported' is impossible."""
        sk = _small_sketch()
        sk.update_many(stream)
        tracked = {key for key, _ in sk.hot_items()}
        for key, count in Counter(stream).items():
            if count >= CANDIDATE_MIN:
                assert key in tracked

    @given(streams)
    @settings(max_examples=100)
    def test_candidate_set_respects_capacity(self, stream):
        sk = _small_sketch(hot_capacity=4)
        sk.update_many(stream)
        assert len(sk.hot_items()) <= 4

    @given(streams)
    @settings(max_examples=100)
    def test_hot_items_sorted_hottest_first(self, stream):
        sk = _small_sketch()
        sk.update_many(stream)
        ests = [est for _, est in sk.hot_items()]
        assert ests == sorted(ests, reverse=True)


class TestDecay:
    @given(streams)
    @settings(max_examples=100)
    def test_decay_is_monotone(self, stream):
        sk = _small_sketch()
        sk.update_many(stream)
        before = {key: sk.estimate(key) for key in set(stream)}
        sk.decay()
        for key, b in before.items():
            assert sk.estimate(key) <= b

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=40))
    @settings(max_examples=50)
    def test_repeated_decay_drains_to_zero(self, stream):
        sk = _small_sketch()
        sk.update_many(stream)
        for _ in range(64):
            sk.decay()
        assert sk.total_mass() == 0.0
        assert sk.hot_items() == []


class TestMerge:
    @given(streams, streams)
    @settings(max_examples=100)
    def test_merge_equals_union_stream(self, a, b):
        """Cell-wise merge of two same-seed sketches must estimate
        exactly like one sketch that saw both streams (counts are small
        integers, so float addition is exact here)."""
        left, right, union = _small_sketch(), _small_sketch(), _small_sketch()
        left.update_many(a)
        right.update_many(b)
        union.update_many(a)
        union.update_many(b)
        left.merge(right)
        for key in set(a) | set(b):
            assert left.estimate(key) == union.estimate(key)


class TestCrossProcessStability:
    """The per-shard sketches in serve/server.py are merged at epoch
    boundaries; that is only meaningful if every process computes the
    same row indices for the same key.  Pin the estimates against a
    subprocess under two different PYTHONHASHSEEDs."""

    _CODE = (
        "from repro.predict.sketch import DecayedCountMinSketch,"
        " key_fingerprint\n"
        "sk = DecayedCountMinSketch(width=64, depth=3, decay=0.5, seed=7)\n"
        "for key in [3, 'user:17', (2, 5), 3, 'user:17', 3]:\n"
        "    sk.update(key)\n"
        "sk.decay()\n"
        "print(repr((key_fingerprint('user:17'), sk.estimate(3),"
        " sk.estimate('user:17'), sk.estimate((2, 5)), sk.total_mass())))"
    )

    def _run_in_subprocess(self, hash_seed: str) -> str:
        out = subprocess.run(
            [sys.executable, "-c", self._CODE],
            env={"PYTHONPATH": ":".join(sys.path), "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        )
        return out.stdout.strip()

    def test_estimates_bit_stable_across_processes_and_hash_seeds(self):
        sk = DecayedCountMinSketch(width=64, depth=3, decay=0.5, seed=7)
        for key in [3, "user:17", (2, 5), 3, "user:17", 3]:
            sk.update(key)
        sk.decay()
        here = repr((key_fingerprint("user:17"), sk.estimate(3),
                     sk.estimate("user:17"), sk.estimate((2, 5)),
                     sk.total_mass()))
        assert self._run_in_subprocess("1") == here
        assert self._run_in_subprocess("31337") == here


class TestRowIndices:
    """Row ``d`` of a key is ``fnv_hash64(fp ^ salt_d) % width`` at every
    width; power-of-two widths reach it through a lookup table."""

    @given(st.integers(min_value=0, max_value=2**64 - 1),
           st.sampled_from([1, 2, 16, 64, 256, 1024, 4096, 1000, 3]))
    @settings(max_examples=300)
    def test_indices_equal_fnv_mod_width(self, fp, width):
        sk = DecayedCountMinSketch(width=width, depth=4, seed=width)
        assert sk._indices(fp) == [fnv_hash64(fp ^ s) % width
                                   for s in sk.salts]


class TestFixedStreamPin:
    """Literal cells and heat after a fixed update/decay stream.

    Recorded once and never re-derived from the code under test, so any
    change to fingerprints, salts, row indices, decay or candidate
    bookkeeping fails here, not only in the end-to-end adaptive golden.
    Width 64 forces collisions; 1024 is the default geometry; 1000 takes
    the non-power-of-two index path.
    """

    _PINS = {
        64: ("1f108f571282e059",
             [(61, 5.375), (("user", 11), 5.375), (("user", 5), 4.875),
              (("user", 6), 4.75), (("user", 8), 4.4375),
              (("user", 4), 4.25), (("user", 2), 4.1875),
              (("user", 9), 3.75)]),
        1024: ("997c77ba7aff5eac",
               [(("user", 12), 3.75), (("user", 0), 3.75),
                (("user", 3), 3.75), (("user", 6), 3.75),
                (("user", 9), 3.75), (("user", 10), 3.6875),
                (("user", 7), 3.6875), (("user", 4), 3.625)]),
        1000: ("e05befbaf20d8351",
               [(("user", 12), 3.75), (("user", 0), 3.75),
                (("user", 3), 3.75), (("user", 6), 3.75),
                (("user", 9), 3.75), (("user", 10), 3.6875),
                (("user", 7), 3.6875), (("user", 4), 3.625)]),
    }

    @staticmethod
    def _run(width):
        sk = DecayedCountMinSketch(width=width, depth=4, decay=0.5, seed=11,
                                   hot_capacity=8)
        for i in range(600):
            sk.update((i * 7919) % 97 if i % 3 else ("user", i % 13))
            if i % 150 == 149:
                sk.decay()
        digest = hashlib.sha256(repr(sk.rows).encode()).hexdigest()[:16]
        return digest, sk.hot_items()

    def test_rows_and_heat_match_pin(self):
        for width, pin in self._PINS.items():
            assert self._run(width) == pin, width


def _fnv1a_bytes(key) -> int:
    """The plain definition: FNV-1a over every byte of ``repr(key)``."""
    h = 0xCBF29CE484222325
    for b in repr(key).encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# Reprs from one byte up to well past the 8-byte memoised tail, with
# multi-byte UTF-8 characters on either side of the cut.
fingerprint_keys = st.recursive(
    st.one_of(st.integers(), st.text(max_size=12),
              st.sampled_from(["", "é", "ü" * 4, "abcdefg", "abcdefgh",
                               "abcdefghi", "日本語キー"])),
    lambda inner: st.tuples(inner, inner) | st.tuples(st.just("usertable"),
                                                      inner),
    max_leaves=6,
)


class TestFingerprint:
    @given(fingerprint_keys)
    @settings(max_examples=400)
    def test_equals_byte_loop(self, key):
        assert key_fingerprint(key) == _fnv1a_bytes(key)

    @given(st.lists(fingerprint_keys, max_size=60))
    @settings(max_examples=50)
    def test_prefix_memo_stays_under_cap(self, batch):
        for key in batch:
            key_fingerprint(key)
            assert len(sketch_module._PREFIX_STATES) <= sketch_module._PREFIX_CAP

    def test_memo_overflow_keeps_fingerprints(self):
        keys = [("table", i) * 3 for i in range(3 * sketch_module._PREFIX_CAP)]
        assert [key_fingerprint(k) for k in keys] == [
            _fnv1a_bytes(k) for k in keys]
        assert len(sketch_module._PREFIX_STATES) <= sketch_module._PREFIX_CAP


class TestEvictionThrash:
    """More warm keys than ``hot_capacity``: every update of a new warm
    key evicts one.  Candidates carry their row indices, so eviction,
    decay and the heat report hash nothing; rows and heat equal a pin
    recorded before candidates stored their indices."""

    @staticmethod
    def _stream(sk):
        for i in range(20_000):
            sk.update(("usertable", (i * 7) % 3_000))
            if i % 5_000 == 4_999:
                sk.decay()

    def test_rows_and_heat_match_pin(self):
        sk = DecayedCountMinSketch(width=1024, depth=4, decay=0.5, seed=3,
                                   hot_capacity=64)
        self._stream(sk)
        hot = sk.hot_items()
        assert hashlib.sha256(repr(sk.rows).encode()).hexdigest()[:16] == \
            "fc1dbb50eff6b5e0"
        assert len(hot) == 64
        assert hashlib.sha256(repr(hot).encode()).hexdigest()[:16] == \
            "b05b35b3684c538f"
        assert hot[0] == (("usertable", 2275), 9.6875)

    def test_at_most_one_index_computation_per_update(self, monkeypatch):
        calls = 0
        indices = DecayedCountMinSketch._indices

        def counting(self, fp):
            nonlocal calls
            calls += 1
            return indices(self, fp)

        monkeypatch.setattr(DecayedCountMinSketch, "_indices", counting)
        for width in (1024, 1000):
            calls = 0
            sk = DecayedCountMinSketch(width=width, depth=4, decay=0.5,
                                       seed=3, hot_capacity=64)
            self._stream(sk)
            sk.hot_items()
            assert calls <= sk.updates, width
