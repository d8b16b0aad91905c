"""Adaptive execution end to end: equivalence off, reproducibility on.

The two contracts the tentpole hangs off:

* predictor **off** (``exp.predict is None``) — nothing in the runner or
  artifact changes: results and exported JSON are byte-identical run to
  run and carry no ``predict`` section;
* predictor **on** — the whole adaptive loop (sketch, steering, boosts,
  retuning) is a pure function of the seed: two identical seeded runs
  agree on every counter and on the policy snapshot.
"""

import json

import pytest

from repro import ExperimentConfig, SimConfig, YcsbConfig
from repro.bench.runner import policy_of, run_system
from repro.bench.workloads import YcsbGenerator
from repro.common.config import PredictConfig
from repro.core.tskd import TSKD
from repro.obs.artifact import build_artifact, validate_artifact


@pytest.fixture
def contended_ycsb():
    gen = YcsbGenerator(YcsbConfig(num_records=2_000, theta=0.9,
                                   ops_per_txn=8), seed=3)
    return gen.make_workload(200)


def _exp(predict=None):
    return ExperimentConfig(sim=SimConfig(num_threads=4), predict=predict)


ADAPTIVE = PredictConfig(epoch_txns=50, hot_threshold=2.0)


class TestDisabledPredictorEquivalence:
    def test_artifact_bytes_identical_without_predictor(self, contended_ycsb):
        docs = []
        for _ in range(2):
            exp = _exp()
            r = run_system(contended_ycsb, TSKD.instance("0"), exp)
            doc = build_artifact(r, config=exp, workload="ycsb")
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]
        doc = json.loads(docs[0])
        assert "predict" not in doc
        assert "predict" not in doc["config"]

    def test_disabled_config_matches_no_config(self, contended_ycsb):
        """enabled=False must take the exact static path, not a dormant
        adaptive one."""
        r_none = run_system(contended_ycsb, TSKD.instance("0"), _exp())
        r_off = run_system(
            contended_ycsb, TSKD.instance("0"),
            _exp(PredictConfig(enabled=False)))
        assert r_none.makespan_cycles == r_off.makespan_cycles
        assert r_none.retries == r_off.retries
        assert policy_of(r_off) is None


class TestAdaptiveReproducibility:
    def test_two_seeded_runs_bit_equal(self, contended_ycsb):
        results = []
        for _ in range(2):
            r = run_system(contended_ycsb, TSKD.instance("0"),
                           _exp(ADAPTIVE))
            results.append((r.makespan_cycles, r.retries, r.committed,
                            json.dumps(policy_of(r).snapshot(),
                                       sort_keys=True)))
        assert results[0] == results[1]

    def test_policy_actually_ran(self, contended_ycsb):
        r = run_system(contended_ycsb, TSKD.instance("0"), _exp(ADAPTIVE))
        policy = policy_of(r)
        assert policy is not None
        assert policy.epoch == 4          # 200 txns / 50-txn epochs
        assert policy.commits_observed == r.committed
        assert r.committed == len(contended_ycsb)

    def test_adaptive_artifact_has_valid_predict_section(self, contended_ycsb):
        exp = _exp(ADAPTIVE)
        r = run_system(contended_ycsb, TSKD.instance("0"), exp)
        doc = build_artifact(r, config=exp, workload="ycsb",
                             predict=policy_of(r).snapshot())
        validate_artifact(doc)
        assert doc["predict"]["epoch"] == 4
        assert doc["config"]["predict"]["epoch_txns"] == 50

    def test_steering_off_still_runs_epoched(self, contended_ycsb):
        cfg = PredictConfig(epoch_txns=50, steer=False, retune=False,
                            admission=False)
        r = run_system(contended_ycsb, TSKD.instance("0"), _exp(cfg))
        policy = policy_of(r)
        assert policy.epoch == 4
        assert policy.steer_reorders == 0
        assert policy.defer_boosts == 0


class TestPartitionedEpochs:
    """Partitioned TSKD plans each epoch on the epoch's own conflict graph,
    as the serve path does, and every epoch's schedule stays RC-free."""

    @pytest.mark.parametrize("partitioner", ["strife", "schism"])
    def test_every_epoch_schedule_rc_free(self, contended_ycsb, monkeypatch,
                                          partitioner):
        planned = []
        prepare = TSKD.prepare

        def recording_prepare(self, workload, *args, **kwargs):
            assert kwargs.get("graph") is None
            plan = prepare(self, workload, *args, **kwargs)
            planned.append((workload, plan.schedule))
            return plan

        monkeypatch.setattr(TSKD, "prepare", recording_prepare)
        system = TSKD(partitioner=partitioner, check=True)
        r = run_system(contended_ycsb, system, _exp(ADAPTIVE))
        assert r.committed == len(contended_ycsb)
        assert len(planned) == 4          # 200 txns / 50-txn epochs
        for epoch, schedule in planned:
            assert len(epoch) == 50
            schedule.validate_total_order()
            schedule.assert_rc_free(epoch.conflict_graph(system.isolation))
            assert any(schedule.queues)
