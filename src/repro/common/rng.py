"""Deterministic random-number utilities.

All stochastic behaviour in the library flows through :class:`Rng` so that
experiments are exactly reproducible from a single integer seed.  The
Zipfian generator follows the classic Gray et al. rejection-free method
used by YCSB, which is what both the YCSB driver in DBx1000 and the
paper's workload extensions rely on.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence, TypeVar

from .errors import ConfigError

T = TypeVar("T")


class Rng:
    """A seeded random source with the handful of draws the library needs.

    Wraps :class:`random.Random` rather than numpy's generator because the
    simulation makes millions of tiny scalar draws, where the pure-Python
    generator is faster than numpy scalar calls.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._r = random.Random(seed)

    def fork(self, salt: int) -> "Rng":
        """Derive an independent stream; equal (seed, salt) gives equal streams."""
        return Rng((self.seed * 1_000_003 + salt) & 0x7FFFFFFFFFFFFFFF)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return self._r.randint(lo, hi)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._r.random()

    def chance(self, p: float) -> bool:
        """True with probability ``p``."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self._r.random() < p

    def choice(self, seq: Sequence[T]) -> T:
        return self._r.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._r.shuffle(seq)

    def sample(self, seq: Sequence[T], n: int) -> list[T]:
        """Sample ``min(n, len(seq))`` distinct elements."""
        n = min(n, len(seq))
        return self._r.sample(seq, n)

    def uniform(self, lo: float, hi: float) -> float:
        return self._r.uniform(lo, hi)


class ZipfianGenerator:
    """Zipfian-distributed integers over ``[0, n)`` with skew ``theta``.

    Implements the Gray et al. "Quickly generating billion-record synthetic
    databases" algorithm, the same one YCSB uses.  ``theta`` in (0, 1) for
    the standard YCSB range; theta -> 0 approaches uniform, larger theta
    is more skewed.  Values > 1 are accepted (the paper's theta_IO goes up
    to 1.6) and handled by the same formulae.
    """

    def __init__(self, n: int, theta: float, rng: Rng):
        if n <= 0:
            raise ConfigError(f"Zipfian domain must be positive, got n={n}")
        if theta < 0 or theta == 1.0:
            raise ConfigError(f"Zipfian theta must be >= 0 and != 1, got {theta}")
        self.n = n
        self.theta = theta
        self._rng = rng
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        denom = 1.0 - self._zeta2 / self._zetan
        # n <= 2 degenerates to 0/0; eta = 0 gives the correct two-point
        # distribution after clamping.
        self._eta = (
            (1.0 - (2.0 / n) ** (1.0 - theta)) / denom if denom > 0 else 0.0
        )

    #: zeta(n, theta) is O(n) to compute; cache it across generators so a
    #: parameter sweep over 20M-record tables stays fast.
    _zeta_cache: dict = {}

    @classmethod
    def _zeta(cls, n: int, theta: float) -> float:
        got = cls._zeta_cache.get((n, theta))
        if got is None:
            if n >= 10_000:
                import numpy as np

                got = float(
                    np.sum(np.arange(1, n + 1, dtype=np.float64) ** -theta)
                )
            else:
                got = sum(1.0 / (i**theta) for i in range(1, n + 1))
            cls._zeta_cache[(n, theta)] = got
        return got

    def next(self) -> int:
        """Draw one value in [0, n); 0 is the hottest item."""
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        # Clamp: the continuous formula reaches exactly n as u -> 1.
        return min(self.n - 1,
                   int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha))

    def sample(self, count: int) -> list[int]:
        return [self.next() for _ in range(count)]


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv_hash64(value: int) -> int:
    """64-bit FNV-1a hash of an integer, as used by YCSB for scrambling.

    Hashes the eight little-endian octets of ``value mod 2**64``.
    """
    v = value & _MASK64
    h = ((_FNV_OFFSET ^ (v & 255)) * _FNV_PRIME) & _MASK64
    h = ((h ^ (v >> 8 & 255)) * _FNV_PRIME) & _MASK64
    h = ((h ^ (v >> 16 & 255)) * _FNV_PRIME) & _MASK64
    h = ((h ^ (v >> 24 & 255)) * _FNV_PRIME) & _MASK64
    h = ((h ^ (v >> 32 & 255)) * _FNV_PRIME) & _MASK64
    h = ((h ^ (v >> 40 & 255)) * _FNV_PRIME) & _MASK64
    h = ((h ^ (v >> 48 & 255)) * _FNV_PRIME) & _MASK64
    return ((h ^ (v >> 56)) * _FNV_PRIME) & _MASK64


def zipf_bounded(rng: Rng, lo: float, hi: float, theta: float, buckets: int = 64) -> float:
    """Draw from a Zipf-shaped distribution over the continuous range [lo, hi].

    Used for the paper's runtime-skew and I/O-latency extensions, which draw
    minimum runtimes / commit delays "from a range following a Zipfian
    distribution with skewness parameter theta".  Small values are the most
    frequent (rank 0 maps to ``lo``), and larger theta concentrates more
    mass at the low end — i.e. a *longer tail* for the rare large values.
    """
    if hi < lo:
        raise ConfigError(f"zipf_bounded needs lo <= hi, got [{lo}, {hi}]")
    if hi == lo:
        return lo
    gen = _bucket_gen_cache(rng, theta, buckets)
    rank = gen.next()
    width = (hi - lo) / buckets
    # Uniform jitter inside the selected bucket keeps the draw continuous.
    return lo + rank * width + rng.random() * width


def _bucket_gen_cache(rng: Rng, theta: float, buckets: int) -> ZipfianGenerator:
    cache = getattr(rng, "_zipf_cache", None)
    if cache is None:
        cache = {}
        rng._zipf_cache = cache  # type: ignore[attr-defined]
    key = (theta, buckets)
    if key not in cache:
        cache[key] = ZipfianGenerator(buckets, theta, rng)
    return cache[key]


def weighted_choice(rng: Rng, weights: Iterable[float]) -> int:
    """Pick an index with probability proportional to its weight."""
    ws = list(weights)
    total = sum(ws)
    if total <= 0:
        raise ConfigError("weighted_choice needs at least one positive weight")
    u = rng.random() * total
    acc = 0.0
    for i, w in enumerate(ws):
        acc += w
        if u < acc:
            return i
    return len(ws) - 1


def reservoir_sample(rng: Rng, stream: Iterable[T], k: int) -> list[T]:
    """Classic reservoir sampling of ``k`` items from an iterable.

    TsDEFER's lookup op picks (thread, index) pairs via reservoir sampling
    (Section 5); this helper is the shared primitive and is also exercised
    directly by tests.
    """
    reservoir: list[T] = []
    for i, item in enumerate(stream):
        if i < k:
            reservoir.append(item)
        else:
            j = rng.randint(0, i)
            if j < k:
                reservoir[j] = item
    return reservoir
