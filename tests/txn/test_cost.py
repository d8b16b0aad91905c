"""Cost estimators: the history cascade, fallbacks, and noise."""

from repro.bench.workloads import TpccGenerator, YcsbGenerator
from repro.common.config import SimConfig, TpccConfig, YcsbConfig
from repro.common.rng import Rng
from repro.sim.warmup import dry_run_cost
from repro.txn import (
    AccessSetSizeCostModel,
    HistoryCostModel,
    NoisyCostModel,
    OpCountCostModel,
    PerfectCostModel,
    make_transaction,
    read,
    serial_cost_cycles,
    write,
)


def txn(tid, n_ops=4, template="t", params=None, **kw):
    ops = [read("x", i) for i in range(n_ops)]
    return make_transaction(tid, ops, template=template, params=params or {}, **kw)


class TestSerialCost:
    def test_formula(self):
        sim = SimConfig(dispatch_cost=100, op_cost=1000, cc_op_overhead=60,
                        commit_overhead=400)
        t = txn(0, n_ops=3)
        assert serial_cost_cycles(t, sim) == 100 + 3 * 1060 + 400

    def test_min_runtime_bound_dominates(self):
        sim = SimConfig()
        t = txn(0, n_ops=1, min_runtime_cycles=10**7)
        assert serial_cost_cycles(t, sim) == 10**7

    def test_io_delay_added_after_bound(self):
        sim = SimConfig()
        t = txn(0, n_ops=1, min_runtime_cycles=10**6, io_delay_cycles=500)
        assert serial_cost_cycles(t, sim) == 10**6 + 500


class TestModels:
    def test_perfect_matches_serial_cost(self):
        sim = SimConfig()
        t = txn(0, n_ops=5)
        assert PerfectCostModel(sim).time(t) == serial_cost_cycles(t, sim)

    def test_op_count_is_proportional_to_ops(self):
        model = OpCountCostModel(SimConfig())
        assert model.time(txn(0, n_ops=8)) == 2 * model.time(txn(1, n_ops=4))

    def test_op_count_without_sim(self):
        assert OpCountCostModel().time(txn(0, n_ops=7)) == 7

    def test_access_set_size(self):
        model = AccessSetSizeCostModel()
        t = make_transaction(0, [read("x", 1), read("x", 1), write("x", 2)])
        assert model.time(t) == 2  # two distinct keys


class TestHistoryModel:
    def test_exact_parameter_match_wins(self):
        model = HistoryCostModel()
        a = txn(0, template="pay", params={"w": 1})
        b = txn(1, template="pay", params={"w": 2})
        model.record(a, 100)
        model.record(b, 900)
        assert model.time(txn(2, template="pay", params={"w": 1})) == 100

    def test_exact_match_averages_observations(self):
        model = HistoryCostModel()
        a = txn(0, template="pay", params={"w": 1})
        model.record(a, 100)
        model.record(a, 300)
        assert model.time(a) == 200

    def test_template_average_for_close_parameters(self):
        model = HistoryCostModel()
        model.record(txn(0, template="pay", params={"w": 1}), 100)
        model.record(txn(1, template="pay", params={"w": 2}), 300)
        # Unknown parameters: fall back to the template average.
        assert model.time(txn(2, template="pay", params={"w": 99})) == 200

    def test_fallback_for_unknown_template(self):
        model = HistoryCostModel(fallback=AccessSetSizeCostModel())
        t = txn(0, n_ops=6, template="never-seen")
        assert model.time(t) == len(t.access_set)

    def test_len_counts_observations(self):
        model = HistoryCostModel()
        assert len(model) == 0
        model.record(txn(0), 10)
        model.record(txn(1), 20)
        assert len(model) == 2

    def test_matches_list_history_over_a_warm_up(self):
        # The [sum, count] accumulators must give exactly the integer
        # means the original per-signature observation lists gave.
        class ListHistory:
            def __init__(self, fallback):
                self._fallback = fallback
                self._by_instance, self._by_template = {}, {}

            def record(self, t, cycles):
                self._by_instance.setdefault(
                    (t.template, t.param_signature()), []).append(cycles)
                self._by_template.setdefault(t.template, []).append(cycles)

            def time(self, t):
                exact = self._by_instance.get((t.template, t.param_signature()))
                if exact:
                    return max(1, sum(exact) // len(exact))
                close = self._by_template.get(t.template)
                if close:
                    return max(1, sum(close) // len(close))
                return self._fallback.time(t)

        sim = SimConfig()
        tpcc = list(TpccGenerator(TpccConfig(num_warehouses=2), seed=3)
                    .make_workload(600))
        ycsb = list(YcsbGenerator(YcsbConfig(num_records=500), seed=4)
                    .make_workload(300))
        model = HistoryCostModel(fallback=OpCountCostModel(sim))
        reference = ListHistory(OpCountCostModel(sim))
        rng = Rng(11)
        # A noisy warm-up (as warm_up_history records), repeated so the
        # exact-parameter lists hold several observations each.
        for t in (tpcc[:400] + ycsb[:200]) * 3:
            observed = max(1, int(dry_run_cost(t, sim) * rng.uniform(0.5, 1.5)))
            model.record(t, observed)
            reference.record(t, observed)
        assert len(model) == 1800
        probes = tpcc + ycsb + [txn(0, template="never-seen")]
        assert [model.time(t) for t in probes] == [
            reference.time(t) for t in probes]


class TestNoisyModel:
    def test_noise_is_bounded(self):
        base = OpCountCostModel()
        model = NoisyCostModel(base, 0.3, Rng(5))
        for tid in range(50):
            t = txn(tid, n_ops=10)
            est = model.time(t)
            assert 7 <= est <= 13

    def test_estimates_are_memoised(self):
        model = NoisyCostModel(OpCountCostModel(), 0.5, Rng(6))
        t = txn(0, n_ops=10)
        assert model.time(t) == model.time(t)

    def test_zero_noise_is_identity(self):
        base = OpCountCostModel()
        model = NoisyCostModel(base, 0.0, Rng(7))
        t = txn(0, n_ops=9)
        assert model.time(t) == base.time(t)
