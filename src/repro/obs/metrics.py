"""Metrics registry: named counters, gauges, and fixed-bucket histograms.

This subsumes and extends :class:`repro.common.stats.Counters`: the
engine's flat tallies are ingested under ``engine.*`` names, and every
other component (TsDEFER, TSgen, the progress table, each CC protocol)
publishes its own instrumentation next to them, so one registry holds
every number a run produced.  The registry serialises to a plain dict
(see :mod:`repro.obs.artifact`) and merges across phases/seeds.

Naming convention: dotted lowercase paths, component first —
``engine.committed``, ``cc.lock_waits``, ``tsdefer.probe_hit_rate``,
``tsgen.rc_checks``, ``latency.service_cycles`` (histogram).  The full
inventory is documented in docs/observability.md.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Union

Number = Union[int, float]

#: Service-latency histogram upper bounds, in cycles.  Geometric-ish so
#: both short YCSB points and long TPC-C tails land in useful buckets.
LATENCY_BUCKETS_CYCLES = (
    2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    200_000, 500_000, 1_000_000, 2_000_000, 5_000_000, 10_000_000,
)

#: Retry-count-per-transaction histogram upper bounds.
RETRY_BUCKETS = (0, 1, 2, 3, 5, 10, 25, 100)

#: Quantiles every histogram tracks with a streaming estimator.
STREAM_QUANTILES = (0.5, 0.95, 0.99)

#: A bulk observation that finds more values than this waiting for the
#: streaming estimators feeds them first (see Histogram.observe_many).
PENDING_MAX = 4_096


class P2Quantile:
    """Streaming quantile estimator (Jain & Chlamtac's P² algorithm).

    O(1) memory per tracked quantile, deterministic for a given
    observation order, no dependencies — so live p99s no longer depend
    on bucket-boundary luck.  The first five observations are held
    exactly; after that, five markers track (min, q/2, q, (1+q)/2, max)
    and the middle heights adjust by the piecewise-parabolic rule.
    """

    __slots__ = ("q", "_init", "_heights", "_positions", "_desired", "_incr")

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._init: list[float] = []
        self._heights: list[float] = []
        self._positions = [1, 2, 3, 4, 5]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._incr = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    def observe(self, x: float) -> None:
        h = self._heights
        if not h:
            init = self._init
            init.append(x)
            if len(init) == 5:
                self._heights = sorted(init)
            return
        n = self._positions
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1
        desired = self._desired
        incr = self._incr
        # desired[0] accrues +0.0 and desired[4] is never read by the
        # adjustment below, so only the middle markers need updating.
        desired[1] += incr[1]
        desired[2] += incr[2]
        desired[3] += incr[3]
        desired[4] += 1.0
        # Marker adjustment, unrolled with _parabolic/_linear inlined —
        # this runs for every observation past the fifth, so the method
        # dispatch and repeated list indexing were the dominant cost.
        # The arithmetic (and its evaluation order) is exactly that of
        # the original helper expressions, so heights stay bit-identical.
        for i in (1, 2, 3):
            ni = n[i]
            d = desired[i] - ni
            if d >= 1.0:
                nip = n[i + 1]
                if nip - ni > 1:
                    nim = n[i - 1]
                    hi = h[i]
                    hip = h[i + 1]
                    him = h[i - 1]
                    cand = hi + 1 / (nip - nim) * (
                        (ni - nim + 1) * (hip - hi) / (nip - ni)
                        + (nip - ni - 1) * (hi - him) / (ni - nim)
                    )
                    if not him < cand < hip:
                        cand = hi + (hip - hi) / (nip - ni)
                    h[i] = cand
                    n[i] = ni + 1
            elif d <= -1.0:
                nim = n[i - 1]
                if nim - ni < -1:
                    nip = n[i + 1]
                    hi = h[i]
                    hip = h[i + 1]
                    him = h[i - 1]
                    cand = hi + -1 / (nip - nim) * (
                        (ni - nim - 1) * (hip - hi) / (nip - ni)
                        + (nip - ni + 1) * (hi - him) / (ni - nim)
                    )
                    if not him < cand < hip:
                        cand = hi + -1 * (him - hi) / (nim - ni)
                    h[i] = cand
                    n[i] = ni - 1

    def _parabolic(self, i: int, s: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + s / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + s) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - s) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, s: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + s * (h[i + s] - h[i]) / (n[i + s] - n[i])

    def value(self) -> Optional[float]:
        """Current estimate, or None before any observation."""
        if self._heights:
            return self._heights[2]
        if not self._init:
            return None
        ordered = sorted(self._init)
        rank = max(0, min(len(ordered) - 1,
                          round(self.q * (len(ordered) - 1))))
        return ordered[rank]


@dataclass
class Counter:
    """Monotonically increasing tally."""

    name: str
    help: str = ""
    value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


@dataclass
class Gauge:
    """Point-in-time value (set, not accumulated)."""

    name: str
    help: str = ""
    value: float = 0.0

    def set(self, v: float) -> None:
        self.value = v


@dataclass
class Histogram:
    """Fixed-bucket histogram: ``bounds`` are ascending *upper* bounds.

    ``counts`` has ``len(bounds) + 1`` entries; the last is the overflow
    bucket (values above every bound).  A value lands in the first bucket
    whose bound is >= the value.
    """

    name: str
    bounds: tuple[Number, ...]
    help: str = ""
    counts: list[int] = field(default_factory=list)
    total: int = 0
    sum: float = 0.0

    def __post_init__(self):
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram {self.name}: bounds must ascend")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        #: Streaming estimators fed every observed value; deserialised or
        #: merged histograms have empty ones and fall back to bucket
        #: quantiles.
        self._estimators = {q: P2Quantile(q) for q in STREAM_QUANTILES}
        #: Values observed in bulk but not yet fed to the estimators, in
        #: arrival order.
        self._pending: list[Number] = []
        #: Estimates carried over a serialisation roundtrip: the raw
        #: samples are gone, so the snapshot values are re-emitted as-is
        #: (and dropped on merge, where they would misrepresent the sum).
        self._static_quantiles: dict[str, float] = {}

    def observe(self, value: Number) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value
        if self._pending:
            self._feed()
        for est in self._estimators.values():
            est.observe(value)

    def observe_many(self, values: Iterable[Number]) -> None:
        """Bulk path for registry population: counts and sum now, the
        streaming estimators when an estimate is read (most bulk-filled
        histograms never are).  Estimators see values in arrival order,
        so every estimate equals eager feeding's."""
        if len(self._pending) > PENDING_MAX:
            self._feed()
        bounds = self.bounds
        counts = self.counts
        bl = bisect_left
        pending = self._pending.append
        total = 0
        acc = 0.0
        for v in values:
            counts[bl(bounds, v)] += 1
            total += 1
            acc += v
            pending(v)
        self.total += total
        self.sum += acc

    def _feed(self) -> None:
        """Feed the pending values to the streaming estimators."""
        pending = self._pending
        for est in self._estimators.values():
            ob = est.observe
            for v in pending:
                ob(v)
        pending.clear()

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> Number:
        """Upper bound of the bucket holding the q-quantile observation."""
        if self.total == 0:
            return 0
        rank = max(1, int(q * self.total + 0.5))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")  # pragma: no cover - defensive

    def quantile_estimates(self) -> dict[str, float]:
        """All available streaming estimates, keyed ``p50``-style.

        Only histograms that saw their observations directly (not merged
        or deserialised ones) have estimates; callers fall back to
        :meth:`quantile`'s bucket bound otherwise.
        """
        if self._pending:
            self._feed()
        out = {}
        for q, est in sorted(self._estimators.items()):
            v = est.value()
            if v is not None:
                out[f"p{round(q * 100)}"] = round(float(v), 6)
        return out

    def to_dict(self) -> dict:
        doc = {"bounds": list(self.bounds), "counts": list(self.counts),
               "count": self.total, "sum": self.sum}
        quantiles = self.quantile_estimates() or self._static_quantiles
        if quantiles:
            doc["quantiles"] = dict(quantiles)
        return doc


class MetricsRegistry:
    """One namespace of counters, gauges, and histograms for a run."""

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- creation / lookup ----------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        got = self.counters.get(name)
        if got is None:
            got = self.counters[name] = Counter(name, help)
        return got

    def gauge(self, name: str, help: str = "") -> Gauge:
        got = self.gauges.get(name)
        if got is None:
            got = self.gauges[name] = Gauge(name, help)
        return got

    def histogram(self, name: str, bounds: tuple[Number, ...],
                  help: str = "") -> Histogram:
        got = self.histograms.get(name)
        if got is None:
            got = self.histograms[name] = Histogram(name, tuple(bounds), help)
        elif tuple(got.bounds) != tuple(bounds):
            raise ValueError(
                f"histogram {name!r} re-registered with different bounds"
            )
        return got

    def value(self, name: str) -> Optional[float]:
        """The current value of a counter or gauge, or None."""
        if name in self.counters:
            return self.counters[name].value
        if name in self.gauges:
            return self.gauges[name].value
        return None

    # -- bulk ingestion ---------------------------------------------------
    def ingest(self, values: Mapping[str, int], prefix: str = "") -> None:
        """Accumulate a flat ``{name: int}`` mapping as counters."""
        for key, v in values.items():
            self.counter(prefix + key).inc(v)

    def ingest_counters(self, counters, prefix: str = "engine.") -> None:
        """Subsume a :class:`repro.common.stats.Counters` tally."""
        from ..common.stats import Counters  # local: avoid import cycles

        if not isinstance(counters, Counters):  # pragma: no cover - defensive
            raise TypeError(f"expected Counters, got {type(counters)!r}")
        self.ingest(
            {
                "committed": counters.committed,
                "aborts": counters.aborts,
                "deferrals": counters.deferrals,
                "defer_checks": counters.defer_checks,
                "lookups": counters.lookups,
                "contended_accesses": counters.contended_accesses,
                "wasted_cycles": counters.wasted_cycles,
                "blocked_cycles": counters.blocked_cycles,
            },
            prefix=prefix,
        )

    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry (counters/histograms add; gauges
        take the other's value, last-writer-wins)."""
        for name, c in other.counters.items():
            self.counter(name, c.help).inc(c.value)
        for name, g in other.gauges.items():
            self.gauge(name, g.help).set(g.value)
        for name, h in other.histograms.items():
            mine = self.histogram(name, h.bounds, h.help)
            for i, c in enumerate(h.counts):
                mine.counts[i] += c
            mine.total += h.total
            mine.sum += h.sum
            mine._static_quantiles = {}

    # -- serialisation ----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.to_dict()
                           for n, h in sorted(self.histograms.items())},
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "MetricsRegistry":
        reg = cls()
        for name, v in d.get("counters", {}).items():
            reg.counter(name).inc(v)
        for name, v in d.get("gauges", {}).items():
            reg.gauge(name).set(v)
        for name, h in d.get("histograms", {}).items():
            hist = reg.histogram(name, tuple(h["bounds"]))
            hist.counts = list(h["counts"])
            hist.total = h["count"]
            hist.sum = h["sum"]
            hist._static_quantiles = dict(h.get("quantiles", {}))
        return reg
