"""OnlinePolicy units: observation, steering, retuning, admission."""

import pytest

from repro import make_transaction, read, write
from repro.common.config import PredictConfig, TsDeferConfig
from repro.common.rng import Rng
from repro.core.tsdefer import TsDefer
from repro.core.tskd import TSKD
from repro.predict.policy import (
    RETUNE_TAIL,
    HookFanout,
    OnlinePolicy,
    fan_out,
    make_policy,
)


def _writer(tid, key):
    return make_transaction(tid, [write("x", key)])


def _commit_n(policy, key, n, tid0=1):
    for i in range(n):
        policy.on_commit(0, _writer(tid0 + i, key), now=i)


def _policy(**overrides):
    cfg = PredictConfig(hot_threshold=2.0, **overrides)
    return OnlinePolicy(cfg, seed=0)


class TestObservation:
    def test_commits_feed_the_sketch(self):
        p = _policy()
        _commit_n(p, 7, 3)
        assert p.commits_observed == 3
        assert p.sketch.estimate(("x", 7)) >= 3

    def test_hot_set_frozen_until_epoch_boundary(self):
        p = _policy()
        _commit_n(p, 7, 8)
        t = _writer(99, 7)
        assert p.hot_keys(t) == frozenset()
        p.end_epoch()
        assert p.hot_keys(t) == frozenset({("x", 7)})

    def test_hot_keys_intersects_access_set(self):
        p = _policy()
        _commit_n(p, 7, 8)
        p.end_epoch()
        cold = _writer(99, 1234)
        assert p.hot_keys(cold) == frozenset()


class TestDriftDetection:
    def test_hotspot_turnover_counts_as_drift(self):
        p = _policy(decay=0.25)
        _commit_n(p, 1, 8)
        p.end_epoch()
        assert p.drift_events == 0
        # The hotspot moves wholesale: old heat decays away over a couple
        # of epochs while a disjoint key takes over.
        for _ in range(3):
            _commit_n(p, 2, 8, tid0=100)
            p.end_epoch()
        assert p.drift_events >= 1

    def test_stationary_hotspot_is_not_drift(self):
        p = _policy()
        for _ in range(4):
            _commit_n(p, 1, 8)
            p.end_epoch()
        assert p.drift_events == 0


class TestRetune:
    def _tsdefer(self, **cfg):
        return TsDefer(TsDeferConfig(**cfg), num_threads=4, rng=Rng(5))

    def test_dormant_without_feedback(self):
        p = _policy()
        td = self._tsdefer()
        for _ in range(6):
            p.end_epoch(td)
        assert p.retunes == []
        assert p.knobs == {"num_lookups": 2, "defer_prob": 0.6}

    def test_dormant_when_retune_disabled(self):
        p = _policy(retune=False, hysteresis_epochs=1)
        td = self._tsdefer()
        td.stats.checks, td.stats.conflicts_witnessed = 100, 90
        for _ in range(6):
            p.end_epoch(td, aborts=50, dispatched=100)
        assert p.retunes == []

    def test_witness_pressure_probes_upward(self):
        p = _policy(hysteresis_epochs=1, witness_hi=0.2)
        td = self._tsdefer()
        # Every check witnesses a conflict: pressure far above the
        # deadband, so the unexplored upward neighbour gets probed.
        td.stats.checks, td.stats.conflicts_witnessed = 100, 90
        p.end_epoch(td, aborts=40, dispatched=100)   # establishes baseline
        td.stats.checks, td.stats.conflicts_witnessed = 200, 180
        p.end_epoch(td, aborts=40, dispatched=100)
        assert p.retunes and p.retunes[-1]["action"] == "probe"
        assert (td.config.num_lookups, td.config.defer_prob) == (5, 0.8)

    def test_bad_probe_walks_back(self):
        p = _policy(hysteresis_epochs=1, witness_hi=0.2)
        td = self._tsdefer()
        td.stats.checks, td.stats.conflicts_witnessed = 100, 90
        p.end_epoch(td, aborts=10, dispatched=100)
        td.stats.checks, td.stats.conflicts_witnessed = 200, 180
        p.end_epoch(td, aborts=10, dispatched=100)   # probe to (5, 0.8)
        assert (td.config.num_lookups, td.config.defer_prob) == (5, 0.8)
        # The probed setting aborts far more: the recorded rate at the
        # old setting now beats it, so the controller moves back.
        td.stats.checks, td.stats.conflicts_witnessed = 300, 270
        p.end_epoch(td, aborts=90, dispatched=100)
        assert (td.config.num_lookups, td.config.defer_prob) == (2, 0.6)
        assert p.retunes[-1]["action"] == "move"

    def test_retune_tail_is_bounded(self):
        p = _policy()
        for i in range(RETUNE_TAIL + 10):
            p._record("probe", 0.1, TsDeferConfig())
        assert len(p.retunes) == RETUNE_TAIL
        assert p.retune_events == RETUNE_TAIL + 10


class TestBoost:
    def test_boost_knobs_come_from_config(self):
        p = _policy(hot_num_lookups=4, hot_defer_prob=0.7)
        assert p.hot_num_lookups == 4
        assert p.hot_defer_prob == 0.7
        p.note_boosted()
        assert p.defer_boosts == 1

    def test_tsdefer_uses_boosted_knobs_for_hot_txns(self):
        p = _policy(hot_num_lookups=5, hot_defer_prob=1.0)
        _commit_n(p, 7, 8)
        p.end_epoch()
        # A remote thread mid-transaction with a wide write set, so the
        # probe budget (not item availability) limits the lookups.
        remote = make_transaction(50, [write("x", k) for k in (7, 8, 9, 10,
                                                              11, 12)])
        td = TsDefer(TsDeferConfig(num_lookups=1), num_threads=4, rng=Rng(5))
        td.heat = p
        td.on_dispatch(1, remote, now=0)
        td.filter(0, _writer(99, 7), now=1)
        boosted_lookups = td.stats.lookups
        assert p.defer_boosts == 1
        td2 = TsDefer(TsDeferConfig(num_lookups=1), num_threads=4, rng=Rng(5))
        td2.on_dispatch(1, remote, now=0)
        td2.filter(0, _writer(99, 7), now=1)
        assert boosted_lookups > td2.stats.lookups

    def test_cold_txns_keep_base_knobs(self):
        p = _policy()
        _commit_n(p, 7, 8)
        p.end_epoch()
        td = TsDefer(TsDeferConfig(num_lookups=1), num_threads=4, rng=Rng(5))
        td.heat = p
        td.on_dispatch(1, _writer(50, 1234), now=0)
        td.filter(0, _writer(99, 4321), now=1)
        assert p.defer_boosts == 0


class TestAdmission:
    def test_disabled_admission_never_rejects(self):
        p = _policy(admission=False)
        _commit_n(p, 7, 8)
        assert not p.should_reject(_writer(99, 7), occupancy=1.0)
        assert p.admission_checked == 0

    def test_below_occupancy_admits_everything(self):
        p = _policy(admission=True, admission_occupancy=0.75)
        _commit_n(p, 7, 8)
        assert not p.should_reject(_writer(99, 7), occupancy=0.5)

    def test_hot_rejected_cold_admitted_under_pressure(self):
        p = _policy(admission=True, admission_occupancy=0.75)
        _commit_n(p, 7, 8)
        assert p.should_reject(_writer(99, 7), occupancy=0.9)
        assert not p.should_reject(_writer(98, 1234), occupancy=0.9)
        assert p.admission_checked == 2
        assert p.admission_rejected_hot == 1


class TestSnapshotAndFactory:
    def test_snapshot_is_json_ready(self):
        import json

        p = _policy()
        _commit_n(p, 7, 8)
        p.end_epoch()
        doc = json.loads(json.dumps(p.snapshot()))
        assert doc["epoch"] == 1
        assert doc["commits_observed"] == 8
        assert doc["hot_keys"] == 1
        assert doc["top_k"]

    def test_make_policy_gates_on_config(self):
        assert make_policy(None, seed=0) is None
        assert make_policy(PredictConfig(enabled=False), seed=0) is None
        assert isinstance(make_policy(PredictConfig(), seed=0), OnlinePolicy)


class TestWiring:
    def test_fan_out_wraps_only_several_hooks(self):
        a, b = _policy(), _policy()
        assert fan_out() is None
        assert fan_out(None, None) is None
        assert fan_out(None, a) is a
        both = fan_out(a, None, b)
        assert isinstance(both, HookFanout)
        assert both.hooks == [a, b]

    def test_install_steers_and_retunes(self):
        p = _policy()
        tskd = TSKD.instance("0")
        tsdefer = TsDefer(TsDeferConfig(), 4, Rng(1))
        p.install(tskd, tsdefer)
        assert tskd.tspar.tsgen_kwargs["heat"] is p
        assert tsdefer.heat is p
        p.uninstall(tskd)
        assert "heat" not in tskd.tspar.tsgen_kwargs

    def test_install_respects_switches(self):
        p = _policy(steer=False, retune=False)
        tskd = TSKD.instance("0")
        tsdefer = TsDefer(TsDeferConfig(), 4, Rng(1))
        p.install(tskd, tsdefer)
        assert "heat" not in tskd.tspar.tsgen_kwargs
        assert tsdefer.heat is None

    def test_no_steering_without_tspar(self):
        p = _policy()
        tskd = TSKD.instance("CC")
        p.install(tskd, None)
        assert "heat" not in tskd.tspar.tsgen_kwargs

    def test_uninstall_leaves_other_heat_alone(self):
        other = _policy()
        tskd = TSKD.instance("0", tsgen_kwargs={"heat": other})
        _policy().uninstall(tskd)
        assert tskd.tspar.tsgen_kwargs["heat"] is other
