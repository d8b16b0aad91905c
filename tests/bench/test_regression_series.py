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
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.experiments import (
    Scale,
    default_exp,
    run_experiment,
    tpcc_workload,
    ycsb_workload,
)
from repro.bench.parallel import WORKER_HASH_SEED
from repro.bench.runner import (
    SYSTEM_SPECS,
    make_system,
    policy_of,
    run_system,
)
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


# -- static (whole-bundle) path goldens -----------------------------------
#
# Every system spec, plus the enforced CC-free gate, run once as a whole
# bundle on tiny YCSB (theta 0.9) and tiny TPC-C (4 warehouses).  With
# the predictor on, TSKD specs take the epoched path while DBCC, the
# bare partitioners and the enforced gate fall back to the static one;
# both arms are pinned.  Each digest covers every RunResult field, the
# metrics registry and the policy snapshot when the run has one.
#
# Horticulture's key ranking and Schism's plurality vote break ties in
# frozenset iteration order, which follows the str hash seed, so, like
# the parallel harness's workers, these digests are computed in a child
# interpreter with the pinned hash seed.

STATIC_SPECS = SYSTEM_SPECS + ("tskd-s!", "tskd-0!")

#: Predictor arm: three epochs over the 48-txn bundle.
STATIC_PREDICT = PredictConfig(epoch_txns=20)

#: Recorded on the commit before the static and epoched runs shared one
#: loop (the change must be bit-invisible for every case).
GOLDEN_STATIC = {
    "ycsb/off":
        "70f86944811d88f789f73dd2fd6b04194348e972193028d172ea8973c9b68c35",
    "ycsb/on":
        "584485497b0d88bd06cec5960334cddc304e07c84a8182ecbd45113056b0bbb3",
    "tpcc/off":
        "6ccf5b64a161fa883418ad384640e013ecdc8d897ec55abb86c92f62636c92e2",
    "tpcc/on":
        "b0f649076b09d4e016bd3fc2b3427ca4292e2bc2f8911f40dbfbb679e3d6b25a",
}


def _run_digest(result) -> str:
    fields = {f.name: getattr(result, f.name)
              for f in dataclasses.fields(result) if f.name != "metrics"}
    policy = policy_of(result)
    return config_hash({
        "result": fields,
        "metrics": result.metrics.to_dict(),
        "policy": policy.snapshot() if policy is not None else None,
    })


def static_digests(case: str) -> dict[str, str]:
    """Per-system digests of one ``"<workload>/<predict>"`` case."""
    workload_kind, predict = case.split("/")
    exp = default_exp(TINY)
    if workload_kind == "ycsb":
        workload = ycsb_workload(TINY, exp, 0.9, seed=0)
    else:
        workload = tpcc_workload(TINY, exp, seed=0)
    if predict == "on":
        exp = exp.with_(predict=STATIC_PREDICT)
    return {spec: _run_digest(run_system(workload, make_system(spec), exp))
            for spec in STATIC_SPECS}


@pytest.fixture(scope="module")
def static_runs() -> dict:
    root = Path(__file__).resolve().parents[2]
    script = ("import json; from tests.bench.test_regression_series import "
              "GOLDEN_STATIC, static_digests; print(json.dumps("
              "{c: static_digests(c) for c in GOLDEN_STATIC}))")
    env = dict(os.environ, PYTHONHASHSEED=WORKER_HASH_SEED,
               PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run([sys.executable, "-c", script], env=env, cwd=root,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("case", sorted(GOLDEN_STATIC))
def test_static_path_golden(static_runs, case):
    per_system = static_runs[case]
    assert config_hash(per_system) == GOLDEN_STATIC[case], (
        f"{case} drifted from its static-path golden digest; "
        f"per-system digests: {per_system}"
    )
