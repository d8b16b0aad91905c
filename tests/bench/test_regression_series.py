"""Golden Series digests: the no-faults pipeline must never drift.

The restart-policy extraction and the fault-injection layer refactored
the engine's hot paths.  With faults disabled (every stock experiment),
the refactor must be *bit-invisible*: the full Series payload — every
throughput, retry, latency, and imbalance number, for YCSB and TPC-C,
across the sequential and parallel harness paths — hashes to the same
digest as before the faults layer existed.

If an intentional behaviour change moves these numbers, regenerate with:

    PYTHONPATH=src python - <<'PY'
    from repro.bench.experiments import run_experiment
    from repro.common.hashing import config_hash
    from tests.bench.test_regression_series import TINY
    for exp_id in ("fig5a", "fig4l"):
        h = config_hash(run_experiment(exp_id, TINY).to_payload())
        print(exp_id, h)
    PY

and say why in the commit message.
"""

import dataclasses

import pytest

from repro.bench.experiments import Scale, run_experiment
from repro.bench.runner import policy_of, run_system
from repro.bench.workloads import YcsbGenerator, drifting_ycsb_workload
from repro.common import ExperimentConfig, Rng, SimConfig, YcsbConfig
from repro.common.config import PredictConfig
from repro.common.hashing import config_hash
from repro.core.tskd import TSKD
from repro.faults import FaultPlan, FaultSpec
from repro.obs.artifact import build_artifact
from repro.sim import make_engine, run_open_system

TINY = Scale(name="quick", bundle=48, seeds=(0, 1), threads=4,
             ycsb_records=20_000, tpcc_warehouses=4)

#: Digests recorded on the commit *before* the faults layer merged.
GOLDEN = {
    # YCSB, DBCC + TSKD[CC], theta sweep endpoints, 2 seeds
    "fig5a": "b2b24ccbf74ee6a51c81b5c8f1ad8fe901a2130c97428f39a851bd3144cda8ce",
    # TPC-C, cross-warehouse sweep endpoints, 2 seeds
    "fig4l": "df14bd35c6a18ab5f457b59d639fbdb8c45be6733bf8f7fd2c692b73e21bd779",
}


@pytest.mark.parametrize("exp_id", sorted(GOLDEN))
def test_series_payload_matches_pre_faults_golden(exp_id):
    series = run_experiment(exp_id, TINY)
    assert config_hash(series.to_payload()) == GOLDEN[exp_id], (
        f"{exp_id} drifted from its pre-faults-layer golden digest; "
        "the faults-disabled path is supposed to be bit-identical"
    )


# -- engine-pinned goldens ------------------------------------------------
#
# The fast engine (repro.sim.fastengine) is contractually bit-identical
# to the reference loop, so a single digest per scenario pins *both*
# engines.  Recorded on the commit that introduced the fast engine;
# regenerate with the recipe below the GOLDEN docstring, substituting
# the scenario builders here.

_STREAM_SIM = SimConfig(num_threads=4, cc="occ")

#: Poisson open-system scenario: arrival stream, queueing, drain.
GOLDEN_OPEN = "1161fbec769faba42d9252bfe17ac4749646d6d40da1f8970afb140929ac3a12"
#: Chaos scenario: every fault kind enabled, backoff restarts.
GOLDEN_CHAOS = "1718ba505ec565372574ba844328f37c9b8c8d9ccd05c7def3ff0bfeb9e11b3d"

CHAOS_SPEC = FaultSpec(seed=11, spurious_aborts=3, stalls=2, crashes=1,
                       io_spikes=2, probe_corruptions=1)


def _stream_workload():
    gen = YcsbGenerator(YcsbConfig(num_records=10_000, theta=0.8,
                                   ops_per_txn=8), seed=5)
    return gen.make_workload(120)


@pytest.mark.parametrize("engine_name", ["fast", "reference"])
def test_open_system_golden_both_engines(engine_name):
    engine = make_engine(_STREAM_SIM.with_(engine=engine_name),
                         record_history=True)
    osr = run_open_system(engine, list(_stream_workload()),
                          offered_tps=4_000, rng=Rng(9))
    payload = {
        "open": osr.to_dict(),
        "committed": osr.phase.counters.committed,
        "history": [(r.tid, r.commit_time) for r in engine.history],
    }
    assert config_hash(payload) == GOLDEN_OPEN, (
        f"open-system run drifted under the {engine_name} engine"
    )


@pytest.mark.parametrize("engine_name", ["fast", "reference"])
def test_chaos_scenario_golden_both_engines(engine_name):
    exp = ExperimentConfig(sim=SimConfig(num_threads=4, cc="silo",
                                         restart_policy="backoff",
                                         engine=engine_name))
    plan = FaultPlan.compile(CHAOS_SPEC, 4)
    result = run_system(_stream_workload(), "dbcc", exp, fault_plan=plan)
    # Hash the full artifact minus the engine selector (the one field
    # that legitimately differs between the two parametrizations).
    norm = ExperimentConfig(sim=SimConfig(num_threads=4, cc="silo",
                                          restart_policy="backoff"))
    assert config_hash(build_artifact(result, config=norm)) == GOLDEN_CHAOS, (
        f"chaos scenario drifted under the {engine_name} engine"
    )


# -- adaptive (epoched) path goldens -------------------------------------
#
# ``run_system`` with an enabled predictor takes the epoched adaptive
# path: one TSgen plan per ``epoch_txns`` slice on one persistent engine.
# These digests pin that path end to end — every RunResult field, the
# full metrics registry and the final policy snapshot — for the
# from-scratch scheduler (TSKD[0], steering on) and the scheduler-free
# baseline (TSKD[CC]).  Regenerate with the helper below and say why.

#: The ``abl_adaptive`` ablation's adaptive arm.
ADAPTIVE_ARM = PredictConfig(admission=False, epoch_txns=50,
                             hot_threshold=2.0, hot_defer_prob=0.9)

#: Recorded on the commit before epochs were planned on their own
#: conflict graphs (the change must be bit-invisible for both).
GOLDEN_ADAPTIVE = {
    "0": "6281c2a4e3259de64e7b67c900674796ece380023045654c70c44214ef84aaad",
    "CC": "c15fc22f9c6b5a4f041b08bcf266a9909759482cd01ee0e56bd27374756d60ca",
}


def _adaptive_digest(which: str, seed: int) -> str:
    workload = drifting_ycsb_workload(
        YcsbConfig(num_records=12_000, theta=0.9), 240, seed=seed,
        drift_every=60)
    exp = ExperimentConfig(sim=SimConfig(num_threads=4), seed=seed,
                           predict=ADAPTIVE_ARM)
    result = run_system(workload, TSKD.instance(which), exp)
    fields = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result) if f.name != "metrics"}
    return config_hash({
        "result": fields,
        "metrics": result.metrics.to_dict(),
        "policy": policy_of(result).snapshot(),
    })


@pytest.mark.parametrize("which", sorted(GOLDEN_ADAPTIVE))
def test_adaptive_path_golden(which):
    digest = config_hash([_adaptive_digest(which, seed) for seed in (0, 1)])
    assert digest == GOLDEN_ADAPTIVE[which], (
        f"TSKD[{which}] adaptive run drifted from its golden digest"
    )
