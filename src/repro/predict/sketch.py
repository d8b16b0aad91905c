"""Seeded, deterministic decayed count-min sketch over write sets.

The predictor's memory of recent conflicts: every committed write set is
folded in with :meth:`DecayedCountMinSketch.update`, and each epoch
boundary multiplies every cell by a decay factor so stale heat fades and
a migrating hot set is tracked instead of averaged away.

Determinism is a contract, not an accident:

* keys are fingerprinted with FNV-1a over ``repr(key)`` bytes — a pure
  function of the key's value, independent of ``PYTHONHASHSEED``,
  process boundaries, and dict iteration order;
* per-row index salts come from forks of a single :class:`Rng` seed;
* cells are plain floats mutated by the same sequence of adds and
  multiplies for a given update sequence, so estimates are bit-equal
  across runs.

The count-min guarantees hold throughout: an estimate never
underestimates the (decayed) true count of a key — collisions only ever
add — and decay is monotone, so :meth:`estimate` after :meth:`decay` is
never larger than before.  The property suite in
``tests/property/test_prop_sketch.py`` pins all of this down.

Because a sketch cannot enumerate its keys, heat reporting keeps a small
deterministic *candidate set*: any key whose estimate reaches
``CANDIDATE_MIN`` on update is remembered (up to ``hot_capacity``,
evicting the coldest), and :meth:`top_k` re-estimates candidates on
demand.  Truly hot keys repeat, so they always enter the candidate set.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from ..common.errors import ConfigError
from ..common.rng import Rng, fnv_hash64

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Estimate at which a key becomes a heat-reporting candidate.  2.0 means
#: a key must repeat within the decay horizon; one-off cold keys skip the
#: candidate bookkeeping entirely, keeping update() cheap on the tail.
CANDIDATE_MIN = 2.0


#: FNV-1a state after all but the last 8 bytes of a key's repr, by those
#: bytes: record keys share a long constant prefix (``('usertable', ``).
#: Cleared when full, so it stays small whatever keys pass through.
_PREFIX_STATES: dict[bytes, int] = {}
_PREFIX_CAP = 512


def key_fingerprint(key: Hashable) -> int:
    """64-bit FNV-1a over ``repr(key)`` — stable across processes.

    ``hash()`` is salted per process for strings (PYTHONHASHSEED);
    ``repr`` of the int/str/tuple record keys the workloads use is a pure
    value function, so the fingerprint — and every sketch estimate — is
    bit-identical wherever it is computed.
    """
    data = repr(key).encode("utf-8")
    head = data[:-8]
    h = _PREFIX_STATES.get(head)
    if h is None:
        h = _FNV_OFFSET
        for b in head:
            h = ((h ^ b) * _FNV_PRIME) & _MASK64
        if len(_PREFIX_STATES) >= _PREFIX_CAP:
            _PREFIX_STATES.clear()
        _PREFIX_STATES[head] = h
    # Arithmetic modulo 2**64 commutes with the XOR of one octet, so the
    # tail masks once instead of per byte.
    for b in data[-8:]:
        h = (h ^ b) * _FNV_PRIME
    return h & _MASK64


class DecayedCountMinSketch:
    """Count-min sketch with multiplicative decay and hot-key candidates."""

    def __init__(
        self,
        width: int = 1_024,
        depth: int = 4,
        decay: float = 0.5,
        seed: int = 0,
        hot_capacity: int = 64,
    ):
        if width <= 0 or depth <= 0:
            raise ConfigError(
                f"sketch needs positive width/depth, got {width}x{depth}")
        if not 0.0 < decay <= 1.0:
            raise ConfigError(f"decay must be in (0, 1], got {decay}")
        if hot_capacity <= 0:
            raise ConfigError("hot_capacity must be positive")
        self.width = width
        self.depth = depth
        self.decay_factor = decay
        self.hot_capacity = hot_capacity
        rng = Rng(seed)
        #: One salt per row; row index = fnv64(fingerprint ^ salt) % width.
        self.salts = tuple(
            rng.fork(d + 1).randint(0, (1 << 62) - 1) for d in range(depth)
        )
        self.rows: list[list[float]] = [
            [0.0] * width for _ in range(depth)
        ]
        #: For a power-of-two width, ``fnv64(x) % width`` depends only on
        #: the low log2(width) bits of each FNV round (XOR is bitwise; a
        #: product's low bits depend only on its factors' low bits), so a
        #: round is ``h = table[h ^ octet]``.  None: other widths.
        self._index_table: list[int] | None = None
        if width & (width - 1) == 0:
            mask = width - 1
            self._index_table = [(x * _FNV_PRIME) & mask
                                 for x in range(max(width, 256))]
            self._index_start = _FNV_OFFSET & mask
        #: key -> (fingerprint, row indices), for keys whose estimate
        #: reached CANDIDATE_MIN; capped at hot_capacity by coldest-first
        #: eviction.  Updates, decay and heat reports read a candidate's
        #: cells through its stored indices instead of re-hashing.
        self._candidates: dict[Hashable, tuple[int, list[int]]] = {}
        self.updates = 0
        self.decays = 0

    # -- core sketch operations -------------------------------------------
    def _indices(self, fp: int) -> list[int]:
        t = self._index_table
        if t is None:
            w = self.width
            return [fnv_hash64(fp ^ salt) % w for salt in self.salts]
        # fp is a 64-bit fingerprint and salts are below 2**62, so
        # fp ^ salt fits the eight octets FNV hashes, lowest first.
        start = self._index_start
        out = []
        for salt in self.salts:
            o0, o1, o2, o3, o4, o5, o6, o7 = (fp ^ salt).to_bytes(8, "little")
            out.append(t[t[t[t[t[t[t[t[start ^ o0] ^ o1] ^ o2] ^ o3]
                                 ^ o4] ^ o5] ^ o6] ^ o7])
        return out

    def update(self, key: Hashable, amount: float = 1.0) -> float:
        """Add ``amount`` to the key's cells; returns the new estimate."""
        known = self._candidates.get(key)
        if known is None:
            fp = key_fingerprint(key)
            idx = self._indices(fp)
        else:
            idx = known[1]
        est = None
        for row, i in zip(self.rows, idx):
            v = row[i] + amount
            row[i] = v
            if est is None or v < est:
                est = v
        self.updates += 1
        if known is None and est >= CANDIDATE_MIN:
            self._candidates[key] = (fp, idx)
            if len(self._candidates) > self.hot_capacity:
                self._evict_coldest()
        return est

    def update_many(self, keys: Iterable[Hashable]) -> None:
        for key in keys:
            self.update(key)

    def estimate(self, key: Hashable) -> float:
        """Upper-bound estimate of the key's decayed count (never under)."""
        return self._estimate_at(self._indices(key_fingerprint(key)))

    def _estimate_at(self, idx: list[int]) -> float:
        return min(map(list.__getitem__, self.rows, idx))

    def decay(self) -> None:
        """Multiply every cell by the decay factor (epoch boundary).

        Cells below a tiny floor snap to zero so a long-idle sketch does
        not accumulate denormals; candidates whose estimate fell below
        1.0 are forgotten (deterministically, by insertion order).
        """
        f = self.decay_factor
        if f < 1.0:
            for row in self.rows:
                row[:] = [x if (x := v * f) > 1e-9 else 0.0 for v in row]
        self.decays += 1
        if self._candidates:
            cold = [k for k, (_fp, idx) in self._candidates.items()
                    if self._estimate_at(idx) < 1.0]
            for k in cold:
                del self._candidates[k]

    def merge(self, other: "DecayedCountMinSketch") -> None:
        """Fold another sketch in cell-wise (per-shard sketch merge).

        Requires identical geometry *and* salts — merging differently
        hashed sketches would be meaningless — which holds whenever both
        were built from the same (width, depth, seed).
        """
        if (other.width, other.depth) != (self.width, self.depth):
            raise ConfigError(
                f"cannot merge {other.width}x{other.depth} sketch into "
                f"{self.width}x{self.depth}")
        if other.salts != self.salts:
            raise ConfigError("cannot merge sketches with different salts")
        for mine, theirs in zip(self.rows, other.rows):
            for i, v in enumerate(theirs):
                if v:
                    mine[i] += v
        self.updates += other.updates
        for key, cand in other._candidates.items():
            if key not in self._candidates:
                self._candidates[key] = cand
        while len(self._candidates) > self.hot_capacity:
            self._evict_coldest()

    # -- heat reporting ----------------------------------------------------
    def _evict_coldest(self) -> None:
        # Coldest by (estimate, fingerprint, repr): repr only breaks
        # fingerprint ties, so it is taken among the tied keys alone.
        heat = [((self._estimate_at(idx), fp), key)
                for key, (fp, idx) in self._candidates.items()]
        low = min(h for h, _ in heat)
        del self._candidates[min((key for h, key in heat if h == low),
                                 key=repr)]

    def hot_items(self) -> list[tuple[Hashable, float]]:
        """Every candidate with its current estimate, hottest first.

        Order is deterministic: descending estimate, then fingerprint,
        then ``repr`` as the final tiebreak.
        """
        ranked = sorted(
            ((key, self._estimate_at(idx), fp)
             for key, (fp, idx) in self._candidates.items()),
            key=lambda kef: (-kef[1], kef[2], repr(kef[0])),
        )
        return [(key, est) for key, est, _ in ranked]

    def top_k(self, n: int) -> list[tuple[Hashable, float]]:
        """The ``n`` hottest tracked keys with their estimates."""
        return self.hot_items()[:n]

    def total_mass(self) -> float:
        """Sum of one row's cells — total decayed write volume seen."""
        return sum(self.rows[0])
