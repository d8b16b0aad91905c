"""Deterministic RNG, Zipfian generation, and sampling helpers."""

import math

import pytest

from repro.common.errors import ConfigError
from repro.common.rng import (
    Rng,
    ZipfianGenerator,
    fnv_hash64,
    reservoir_sample,
    weighted_choice,
    zipf_bounded,
)


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert [a.randint(0, 100) for _ in range(20)] == [
            b.randint(0, 100) for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a, b = Rng(1), Rng(2)
        assert [a.randint(0, 10**9) for _ in range(5)] != [
            b.randint(0, 10**9) for _ in range(5)
        ]

    def test_fork_is_deterministic(self):
        assert Rng(7).fork(3).randint(0, 10**9) == Rng(7).fork(3).randint(0, 10**9)

    def test_fork_streams_are_independent(self):
        base = Rng(7)
        assert base.fork(1).randint(0, 10**9) != base.fork(2).randint(0, 10**9)

    def test_chance_extremes(self):
        rng = Rng(0)
        assert not rng.chance(0.0)
        assert rng.chance(1.0)
        assert not rng.chance(-1.0)
        assert rng.chance(2.0)

    def test_chance_frequency(self):
        rng = Rng(5)
        hits = sum(rng.chance(0.25) for _ in range(10_000))
        assert 2_200 <= hits <= 2_800

    def test_sample_caps_at_population(self):
        rng = Rng(0)
        assert sorted(rng.sample([1, 2, 3], 10)) == [1, 2, 3]

    def test_shuffle_is_permutation(self):
        rng = Rng(9)
        xs = list(range(50))
        ys = list(xs)
        rng.shuffle(ys)
        assert sorted(ys) == xs and ys != xs


class TestZipfian:
    def test_domain(self):
        gen = ZipfianGenerator(100, 0.8, Rng(1))
        values = gen.sample(5_000)
        assert min(values) >= 0
        assert max(values) < 100

    def test_rank_zero_is_hottest(self):
        gen = ZipfianGenerator(1_000, 0.9, Rng(2))
        values = gen.sample(20_000)
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        assert counts[0] == max(counts.values())

    def test_higher_theta_is_more_skewed(self):
        def hot_share(theta):
            gen = ZipfianGenerator(10_000, theta, Rng(3))
            values = gen.sample(20_000)
            return sum(1 for v in values if v < 10) / len(values)

        assert hot_share(0.9) > hot_share(0.5)

    def test_theta_above_one_supported(self):
        gen = ZipfianGenerator(1_000, 1.4, Rng(4))
        values = gen.sample(1_000)
        assert all(0 <= v < 1_000 for v in values)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            ZipfianGenerator(0, 0.5, Rng(0))
        with pytest.raises(ConfigError):
            ZipfianGenerator(10, 1.0, Rng(0))
        with pytest.raises(ConfigError):
            ZipfianGenerator(10, -0.1, Rng(0))

    def test_zeta_cache_hits(self):
        ZipfianGenerator(50_000, 0.77, Rng(0))
        assert (50_000, 0.77) in ZipfianGenerator._zeta_cache
        # Second construction must reuse the cache (same object value).
        ZipfianGenerator(50_000, 0.77, Rng(1))

    def test_zeta_numpy_matches_loop(self):
        loop = sum(1.0 / i**0.8 for i in range(1, 10_001))
        ZipfianGenerator._zeta_cache.pop((10_000, 0.8), None)
        fast = ZipfianGenerator._zeta(10_000, 0.8)
        assert math.isclose(loop, fast, rel_tol=1e-9)


class TestHelpers:
    def test_fnv_is_deterministic_and_spread(self):
        assert fnv_hash64(12345) == fnv_hash64(12345)
        hashes = {fnv_hash64(i) % 1000 for i in range(200)}
        assert len(hashes) > 150  # no catastrophic clustering

    def test_fnv_matches_byte_loop(self):
        """The unrolled hash is FNV-1a over the eight little-endian
        octets of ``value mod 2**64``, as the reference loop computes."""
        def loop(value):
            h, v = 0xCBF29CE484222325, value & 0xFFFFFFFFFFFFFFFF
            for _ in range(8):
                h = ((h ^ (v & 0xFF)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
                v >>= 8
            return h
        edge = [0, 1, 255, 256, 2**63, 2**64 - 1, 2**64, -1, -12345,
                -(2**64), 2**70 + 5, 3**90]
        for v in edge + list(range(-300, 300, 7)):
            assert fnv_hash64(v) == loop(v)

    def test_fnv_literal_values(self):
        assert fnv_hash64(0) == 0xA8C7F832281A39C5
        assert fnv_hash64(2**64 - 1) == 0x8CF51A8BFCA3883D
        assert fnv_hash64(-1) == 0x8CF51A8BFCA3883D
        assert fnv_hash64(-12345) == 0x45C11FEC7BD25825
        assert fnv_hash64(2**70 + 5) == 0xDE21504F16DC720
        assert fnv_hash64(12345) == 0xE71EB185E2EDCC4C

    def test_zipf_bounded_range(self):
        rng = Rng(11)
        values = [zipf_bounded(rng, 10.0, 500.0, 0.8) for _ in range(2_000)]
        assert all(10.0 <= v <= 500.0 for v in values)

    def test_zipf_bounded_mass_at_low_end(self):
        rng = Rng(12)
        values = [zipf_bounded(rng, 0.0, 100.0, 1.2) for _ in range(5_000)]
        low = sum(1 for v in values if v < 20.0)
        assert low > len(values) * 0.5

    def test_zipf_bounded_higher_theta_longer_tail(self):
        def mean(theta):
            rng = Rng(13)
            return sum(zipf_bounded(rng, 0.0, 100.0, theta)
                       for _ in range(5_000)) / 5_000

        assert mean(1.6) < mean(0.8)

    def test_zipf_bounded_degenerate_range(self):
        assert zipf_bounded(Rng(0), 5.0, 5.0, 0.8) == 5.0

    def test_zipf_bounded_rejects_inverted_range(self):
        with pytest.raises(ConfigError):
            zipf_bounded(Rng(0), 10.0, 1.0, 0.8)

    def test_weighted_choice_distribution(self):
        rng = Rng(14)
        picks = [weighted_choice(rng, [0.1, 0.9]) for _ in range(5_000)]
        assert 4_200 <= sum(picks) <= 4_800

    def test_weighted_choice_requires_positive_mass(self):
        with pytest.raises(ConfigError):
            weighted_choice(Rng(0), [0.0, 0.0])

    def test_reservoir_sample_size_and_membership(self):
        rng = Rng(15)
        out = reservoir_sample(rng, range(1_000), 10)
        assert len(out) == 10
        assert all(0 <= v < 1_000 for v in out)

    def test_reservoir_sample_short_stream(self):
        assert sorted(reservoir_sample(Rng(0), [1, 2], 5)) == [1, 2]

    def test_reservoir_sample_uniformity(self):
        hits = 0
        for seed in range(600):
            sample = reservoir_sample(Rng(seed), range(10), 3)
            hits += 0 in sample
        # P(0 sampled) = 0.3; 600 trials -> ~180.
        assert 130 <= hits <= 230
