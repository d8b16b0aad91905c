"""TSKD facade: the five paper instances, execution plans, ablations."""

import pytest

from repro.common.config import TSDEFER_DISABLED, TsDeferConfig
from repro.common.errors import ConfigError
from repro.common.rng import Rng
from repro.core.tskd import TSKD, execute_phases, tskd_disabled_variant
from repro.sim import make_engine
from repro.sim.warmup import warm_up_history
from repro.common.config import SimConfig, YcsbConfig
from repro.bench.workloads import YcsbGenerator


@pytest.fixture(scope="module")
def workload():
    gen = YcsbGenerator(YcsbConfig(num_records=10_000, theta=0.85,
                                   ops_per_txn=8), seed=17)
    return gen.make_workload(150)


@pytest.fixture(scope="module")
def cost(workload):
    return warm_up_history(workload, SimConfig(num_threads=4), noise=0.0)


class TestInstances:
    @pytest.mark.parametrize("which,name", [
        ("S", "TSKD[S]"), ("C", "TSKD[C]"), ("H", "TSKD[H]"),
        ("0", "TSKD[0]"), ("CC", "TSKD[CC]"),
    ])
    def test_names(self, which, name):
        assert TSKD.instance(which).name == name

    def test_case_insensitive(self):
        assert TSKD.instance("cc").name == "TSKD[CC]"
        assert TSKD.instance("s").name == "TSKD[S]"

    def test_unknown_instance(self):
        with pytest.raises(ConfigError):
            TSKD.instance("Z")

    def test_partitioner_wiring(self):
        assert TSKD.instance("S").partitioner.name == "strife"
        assert TSKD.instance("C").partitioner.name == "schism"
        assert TSKD.instance("H").partitioner.name == "horticulture"
        assert TSKD.instance("0").partitioner is None
        assert not TSKD.instance("CC").use_tspar


class TestPrepare:
    def test_tspar_plan_has_queue_phase(self, workload, cost):
        plan = TSKD.instance("S").prepare(workload, 4, cost, rng=Rng(1))
        assert plan.schedule is not None
        assert 1 <= plan.num_phases <= 2
        assert plan.total_transactions() == len(workload)

    def test_residual_phase_present_when_residual_remains(self, workload, cost):
        plan = TSKD.instance("S").prepare(workload, 4, cost, rng=Rng(1))
        if plan.schedule.residual:
            assert plan.num_phases == 2
            phase2 = [t.tid for buf in plan.phases[1] for t in buf]
            assert sorted(phase2) == sorted(t.tid for t in plan.schedule.residual)

    def test_cc_instance_is_single_round_robin_phase(self, workload, cost):
        plan = TSKD.instance("CC").prepare(workload, 4, cost, rng=Rng(1))
        assert plan.schedule is None
        assert plan.num_phases == 1
        assert plan.total_transactions() == len(workload)

    def test_tsdefer_only_ablation_uses_partitioner_parts(self, workload, cost):
        tskd = TSKD(partitioner="strife", use_tspar=False)
        plan = tskd.prepare(workload, 4, cost, rng=Rng(1))
        assert plan.schedule is None
        assert plan.total_transactions() == len(workload)

    def test_component_residual_assignment(self, workload, cost):
        tskd = TSKD(partitioner="strife", residual_assign="component")
        plan = tskd.prepare(workload, 4, cost, rng=Rng(1))
        assert plan.total_transactions() == len(workload)


class TestExecutePhases:
    def test_phases_run_back_to_back(self, workload, cost):
        plan = TSKD.instance("S").prepare(workload, 4, cost, rng=Rng(1))
        engine = make_engine(SimConfig(num_threads=4))
        results = execute_phases(engine, plan.phases, start_time=7)
        assert len(results) == plan.num_phases
        assert results[0].start_time == 7
        for prev, nxt in zip(results, results[1:]):
            assert nxt.start_time == prev.end_time
        assert (sum(r.counters.committed for r in results)
                == len(workload))


class TestFilters:
    def test_filter_enabled_by_default(self):
        assert TSKD.instance("S").make_filter(4) is not None

    def test_filter_disabled(self):
        tskd = TSKD.instance("S", tsdefer=TSDEFER_DISABLED)
        assert tskd.make_filter(4) is None

    def test_filter_carries_config(self):
        cfg = TsDeferConfig(num_lookups=5)
        tskd = TSKD.instance("CC", tsdefer=cfg)
        assert tskd.make_filter(4).config.num_lookups == 5


class TestAblationHelper:
    def test_tspar_only(self):
        base = TSKD.instance("S")
        variant = tskd_disabled_variant(base, tspar=True, tsdefer=False)
        assert variant.use_tspar
        assert not variant.tsdefer_config.enabled
        assert variant.partitioner is base.partitioner

    def test_tsdefer_only(self):
        base = TSKD.instance("S")
        variant = tskd_disabled_variant(base, tspar=False, tsdefer=True)
        assert not variant.use_tspar
        assert variant.tsdefer_config.enabled
