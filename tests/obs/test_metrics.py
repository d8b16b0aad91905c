"""Metrics registry: counters, gauges, histograms, ingestion, merging."""

from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stats import Counters
from repro.obs.metrics import (
    LATENCY_BUCKETS_CYCLES,
    PENDING_MAX,
    RETRY_BUCKETS,
    Histogram,
    MetricsRegistry,
)


class TestHistogram:
    def test_bucketing_with_overflow(self):
        h = Histogram("h", bounds=(10, 100))
        h.observe_many([5, 10, 50, 1000])
        assert h.counts == [2, 1, 1]  # <=10, <=100, overflow
        assert h.total == 4
        assert h.sum == 1065

    def test_mean_and_quantile(self):
        h = Histogram("h", bounds=(10, 100, 1000))
        h.observe_many([1] * 90 + [500] * 9 + [5000])
        assert h.mean == pytest.approx((90 + 4500 + 5000) / 100)
        assert h.quantile(0.5) == 10
        assert h.quantile(0.95) == 1000
        assert h.quantile(1.0) == float("inf")

    def test_empty(self):
        h = Histogram("h", bounds=(1,))
        assert h.mean == 0.0
        assert h.quantile(0.99) == 0

    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(10, 5))

    def test_default_bucket_sets_are_valid(self):
        assert list(LATENCY_BUCKETS_CYCLES) == sorted(LATENCY_BUCKETS_CYCLES)
        assert list(RETRY_BUCKETS) == sorted(RETRY_BUCKETS)


class TestRegistry:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        reg.counter("a.b").inc(3)
        reg.counter("a.b").inc()
        assert reg.value("a.b") == 4

    def test_gauge_set(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.5)
        reg.gauge("g").set(2.5)
        assert reg.value("g") == 2.5

    def test_value_of_unknown_is_none(self):
        assert MetricsRegistry().value("nope") is None

    def test_histogram_rebind_same_bounds(self):
        reg = MetricsRegistry()
        assert reg.histogram("h", (1, 2)) is reg.histogram("h", (1, 2))

    def test_histogram_rebind_different_bounds_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1, 2))
        with pytest.raises(ValueError):
            reg.histogram("h", (1, 3))

    def test_ingest_prefixes_and_accumulates(self):
        reg = MetricsRegistry()
        reg.ingest({"hits": 2}, prefix="x.")
        reg.ingest({"hits": 3}, prefix="x.")
        assert reg.value("x.hits") == 5

    def test_ingest_counters_subsumes_engine_tallies(self):
        reg = MetricsRegistry()
        reg.ingest_counters(Counters(committed=7, aborts=2, wasted_cycles=90))
        assert reg.value("engine.committed") == 7
        assert reg.value("engine.aborts") == 2
        assert reg.value("engine.wasted_cycles") == 90
        assert reg.value("engine.blocked_cycles") == 0

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.histogram("h", (10,)).observe(5)
        b.histogram("h", (10,)).observe(50)
        a.merge(b)
        assert a.value("c") == 3
        assert a.value("g") == 9.0  # gauges: last writer wins
        assert a.histograms["h"].counts == [1, 1]
        assert a.histograms["h"].total == 2

    def test_dict_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(4)
        reg.gauge("g").set(0.25)
        reg.histogram("h", (1, 10)).observe_many([0, 5, 99])
        back = MetricsRegistry.from_dict(reg.to_dict())
        assert back.to_dict() == reg.to_dict()


class TestRunPopulation:
    """run_system fills one registry with every component's numbers."""

    def test_registry_rides_on_run_result(self, small_ycsb, small_exp):
        from repro.bench.runner import run_system
        from repro.core.tskd import TSKD

        run = run_system(small_ycsb, TSKD.instance("S"), small_exp)
        reg = run.metrics
        assert reg is not None
        assert reg.value("engine.committed") == run.committed
        assert reg.value("cc.contended") is not None
        assert reg.value("tsdefer.lookups") is not None
        assert reg.value("tsgen.examined") is not None
        assert reg.value("run.throughput_txn_s") == pytest.approx(
            run.throughput)
        lat = reg.histograms["latency.service_cycles"]
        assert lat.total == run.committed
        retries = reg.histograms["retries.per_txn"]
        assert retries.total == run.committed

    def test_caller_supplied_registry_accumulates(self, small_ycsb,
                                                  small_exp):
        from repro.bench.runner import run_system

        reg = MetricsRegistry()
        run_system(small_ycsb, "dbcc", small_exp, metrics=reg)
        first = reg.value("engine.committed")
        run_system(small_ycsb, "dbcc", small_exp, metrics=reg)
        assert reg.value("engine.committed") == 2 * first


class TestP2Quantile:
    def test_exact_below_five_observations(self):
        from repro.obs.metrics import P2Quantile

        q = P2Quantile(0.5)
        assert q.value() is None
        for v in (5.0, 1.0, 3.0):
            q.observe(v)
        assert q.value() == 3.0  # sorted-rank median of 3 samples

    def test_converges_on_uniform_stream(self):
        from repro.common.rng import Rng
        from repro.obs.metrics import P2Quantile

        rng = Rng(7)
        q50, q99 = P2Quantile(0.5), P2Quantile(0.99)
        for _ in range(20_000):
            v = rng.random() * 100.0
            q50.observe(v)
            q99.observe(v)
        assert abs(q50.value() - 50.0) < 2.0
        assert abs(q99.value() - 99.0) < 1.5

    def test_deterministic_across_runs(self):
        from repro.obs.metrics import P2Quantile

        def run():
            q = P2Quantile(0.95)
            for i in range(1_000):
                q.observe(float((i * 37) % 101))
            return q.value()

        assert run() == run()

    def test_rejects_bad_quantile(self):
        from repro.obs.metrics import P2Quantile

        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


class TestHistogramStreamingQuantiles:
    def test_estimates_ride_in_to_dict(self):
        h = Histogram("h", bounds=(10, 100, 1000))
        h.observe_many(list(range(1, 101)))
        doc = h.to_dict()
        assert "quantiles" in doc
        assert abs(doc["quantiles"]["p50"] - 50.0) < 5.0
        assert doc["quantiles"]["p99"] <= 100.0
        # The bucketed quantile stays untouched by the estimators.
        assert h.quantile(0.5) == 100

    def test_empty_histogram_omits_quantiles(self):
        assert "quantiles" not in Histogram("h", bounds=(10,)).to_dict()

    def test_roundtrip_carries_quantiles_statically(self):
        reg = MetricsRegistry()
        reg.histogram("h", (10, 100)).observe_many(
            [float(v) for v in range(1, 21)])
        doc = reg.to_dict()
        clone = MetricsRegistry.from_dict(doc)
        # The raw samples are gone, but the snapshot estimates survive a
        # roundtrip byte-identically (report renders saved artifacts).
        assert clone.to_dict() == doc
        # A merge invalidates the carried snapshot: it no longer
        # describes the summed population.
        merged = MetricsRegistry.from_dict(doc)
        merged.merge(clone)
        assert "quantiles" not in merged.to_dict()["histograms"]["h"]


class _EagerHistogram(Histogram):
    """Feeds every value to the estimators as it arrives."""

    def observe_many(self, values):
        values = list(values)
        for v in values:
            self.counts[bisect_left(self.bounds, v)] += 1
        self.total += len(values)
        acc = 0.0
        for v in values:
            acc += v
            for est in self._estimators.values():
                est.observe(v)
        self.sum += acc


_values = st.lists(st.integers(min_value=0, max_value=2_000), max_size=40)
_steps = st.lists(st.one_of(
    st.tuples(st.just("observe"), st.integers(min_value=0, max_value=2_000)),
    st.tuples(st.just("observe_many"), _values),
    st.tuples(st.just("merge"), _values),
    st.tuples(st.just("to_dict"), st.none()),
), max_size=25)


class TestLazyStreamingQuantiles:
    """Bulk observations reach the P² estimators only when an estimate is
    read, and in arrival order, so every document equals eager feeding's."""

    @settings(max_examples=150, deadline=None)
    @given(_steps)
    def test_to_dict_equals_eager_feeding(self, steps):
        bounds = (10, 100, 1000)
        lazy, eager = MetricsRegistry(), MetricsRegistry()
        lazy.histogram("h", bounds)
        eager.histograms["h"] = _EagerHistogram("h", bounds)
        for op, arg in steps:
            for reg in (lazy, eager):
                h = reg.histogram("h", bounds)
                if op == "observe":
                    h.observe(arg)
                elif op == "observe_many":
                    h.observe_many(iter(arg))
                elif op == "merge":
                    other = MetricsRegistry()
                    other.histogram("h", bounds).observe_many(arg)
                    reg.merge(other)
            if op == "to_dict":
                assert lazy.to_dict() == eager.to_dict()
        assert lazy.to_dict() == eager.to_dict()

    def test_pending_values_stay_bounded(self):
        h = Histogram("h", bounds=(10,))
        for _ in range(20):
            h.observe_many(range(1_000))
        assert len(h._pending) <= PENDING_MAX + 1_000
        assert h.to_dict()["quantiles"]["p50"] == pytest.approx(500, abs=50)
