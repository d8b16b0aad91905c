"""Experiment runner: systems, metrics, and history plumbing."""

import pytest

from repro.bench.runner import (
    as_tskd,
    engine_of,
    policy_of,
    run_system,
    system_name,
)
from repro.common.config import PredictConfig
from repro.core.tskd import TSKD
from repro.txn.workload import Workload
from repro.partition import HorticulturePartitioner, StrifePartitioner
from repro.sim import assert_serializable


class TestSystemNames:
    def test_names(self):
        assert system_name("dbcc") == "DBCC"
        assert system_name(TSKD.instance("S")) == "TSKD[S]"
        assert system_name(StrifePartitioner()) == "Strife"


class TestAsTskd:
    def test_dbcc_is_tskd_with_both_modules_off(self):
        tskd = as_tskd("dbcc")
        assert tskd.partitioner is None
        assert not tskd.use_tspar
        assert not tskd.tsdefer_config.enabled

    def test_partitioner_is_tskd_with_both_modules_off(self):
        strife = StrifePartitioner()
        tskd = as_tskd(strife)
        assert tskd.partitioner is strife
        assert not tskd.use_tspar
        assert not tskd.tsdefer_config.enabled

    def test_tskd_passes_through(self):
        tskd = TSKD.instance("S")
        assert as_tskd(tskd) is tskd

    def test_unknown_string(self):
        with pytest.raises(ValueError):
            as_tskd("mystery")

    def test_result_keeps_the_original_name(self, small_ycsb, small_exp):
        assert run_system(small_ycsb, "dbcc", small_exp).name == "DBCC"
        assert run_system(small_ycsb, StrifePartitioner(),
                          small_exp).name == "Strife"


class TestRunSystem:
    def test_dbcc_commits_everything(self, small_ycsb, small_exp):
        r = run_system(small_ycsb, "dbcc", small_exp)
        assert r.committed == len(small_ycsb)
        assert r.throughput > 0
        assert r.makespan_cycles > 0

    def test_unknown_string_system(self, small_ycsb, small_exp):
        with pytest.raises(ValueError):
            run_system(small_ycsb, "mystery", small_exp)

    @pytest.mark.parametrize("which", ["S", "C", "H", "0", "CC"])
    def test_all_tskd_instances_run(self, small_ycsb, small_exp, which):
        r = run_system(small_ycsb, TSKD.instance(which), small_exp)
        assert r.committed == len(small_ycsb)
        if which in ("S", "C", "H", "0"):
            assert r.scheduled_pct is not None
            assert r.queue_retries is not None
        else:
            assert r.scheduled_pct is None

    def test_partitioner_baselines_run(self, small_ycsb, small_exp):
        for system in (StrifePartitioner(), HorticulturePartitioner()):
            r = run_system(small_ycsb, system, small_exp)
            assert r.committed == len(small_ycsb)

    def test_custom_name(self, small_ycsb, small_exp):
        r = run_system(small_ycsb, "dbcc", small_exp, name="custom")
        assert r.name == "custom"

    def test_thread_busy_length_matches_threads(self, small_ycsb, small_exp):
        r = run_system(small_ycsb, "dbcc", small_exp)
        assert len(r.thread_busy_cycles) == small_exp.sim.num_threads

    def test_deterministic_given_seed(self, small_ycsb, small_exp):
        r1 = run_system(small_ycsb, TSKD.instance("S"), small_exp)
        r2 = run_system(small_ycsb, TSKD.instance("S"), small_exp)
        assert r1.makespan_cycles == r2.makespan_cycles
        assert r1.retries == r2.retries

    def test_seed_changes_outcome(self, small_ycsb, small_exp):
        r1 = run_system(small_ycsb, TSKD.instance("S"), small_exp)
        r2 = run_system(small_ycsb, TSKD.instance("S"),
                        small_exp.with_(seed=99))
        # Different rng forks change the residual order / defer draws.
        assert (r1.makespan_cycles != r2.makespan_cycles
                or r1.retries != r2.retries
                or r1.deferrals != r2.deferrals)


    @pytest.mark.parametrize("predict", [None, PredictConfig(epoch_txns=10)])
    def test_empty_bundle_reads_zero(self, small_exp, predict):
        r = run_system(Workload([], name="empty"), TSKD.instance("0"),
                       small_exp.with_(predict=predict))
        assert (r.committed, r.makespan_cycles, r.retries) == (0, 0, 0)
        assert r.thread_busy_cycles == (0,) * small_exp.sim.num_threads
        assert r.scheduled_pct == 1.0 and r.queue_retries == 0
        # Cut into epochs, the empty bundle has none to close.
        assert (policy_of(r) is None) == (predict is None)
        if predict is not None:
            assert policy_of(r).epoch == 0


class TestHistoryPlumbing:
    def test_engine_of_requires_recording(self, small_ycsb, small_exp):
        r = run_system(small_ycsb, "dbcc", small_exp)
        with pytest.raises(ValueError):
            engine_of(r)

    def test_recorded_history_is_serializable(self, small_ycsb, small_exp):
        r = run_system(small_ycsb, TSKD.instance("S"), small_exp,
                       record_history=True)
        engine = engine_of(r)
        assert len(engine.history) == len(small_ycsb)
        assert_serializable(engine.history)
