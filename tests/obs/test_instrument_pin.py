"""Pinned instrumentation output: span streams and virtual profiles.

Each digest covers one run's full ``ListTracer`` event stream plus its
virtual-mode profile (calls and virtual cycles per section), recorded
under both engines.  The digests were recorded before the engines'
tracer and profiler channels were merged into one ``Instrument``, so
they pin that the merge changed no event, no section name, no call
count and no cycle attribution.

The cases cover every event kind and section the engines produce:
TSKD with TsDEFER probing, the enforced gate engine, lock block/wake
under wait-die, a chaos plan with crashes and stalls under the
``defer_coldest`` restart policy, an open-system arrival stream (the
``engine.arrival`` section) and an adaptive epoched run.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.runner import make_system, run_system
from repro.bench.workloads import YcsbGenerator
from repro.cli import main
from repro.common import ExperimentConfig, SimConfig, YcsbConfig
from repro.common.config import PredictConfig
from repro.common.hashing import config_hash
from repro.faults import FaultSpec
from repro.obs.prof import Profiler
from repro.obs.tracing import ListTracer, load_trace

CHAOS = FaultSpec(seed=5, horizon=400_000, spurious_aborts=3, stalls=3,
                  crashes=2, io_spikes=1, probe_corruptions=1)

#: case -> (system spec, SimConfig overrides, ExperimentConfig overrides)
CASES = {
    "tskd-cc": ("tskd-cc", {}, {}),
    "tskd-s-gate": ("tskd-s!", {}, {}),
    "dbcc-waitdie": ("dbcc", {"cc": "waitdie"}, {}),
    "chaos-defer-coldest": ("tskd-cc", {"restart_policy": "defer_coldest"},
                            {"faults": CHAOS}),
    "adaptive-tskd-0": ("tskd-0", {},
                        {"predict": PredictConfig(epoch_txns=60)}),
}

#: Recorded before the instrumentation refactor.  One digest per case:
#: the fast and reference engines must both produce it.
GOLDEN = {
    "adaptive-tskd-0":
        "2f292d4413b13b8849c32fd385e1f5168aa5421e4bf9b137b75d4af4b486e11e",
    "chaos-defer-coldest":
        "c176e3320b23c4f7e306e91a5dcd9f67f8dba77dc1e802ab81e7c405fdbba376",
    "dbcc-waitdie":
        "6aadf1f31d28373c7512c15964ca76afe192b4b16d025083a43cb488303345e3",
    "open-system":
        "baabc47e8707a53b93aa2d482f236686bcd7db12b6e9175d36cd839490f6719d",
    "tskd-cc":
        "d7ec6b968c76156dc84363f487be0fa0ecf0189ee03eafc117a3fb5224934b20",
    "tskd-s-gate":
        "1d350b53b367c1d77a3de745105d1d6576783807c66300cf859965d46eab7936",
}


def _workload():
    gen = YcsbGenerator(YcsbConfig(num_records=4_000, theta=0.9,
                                   ops_per_txn=8), seed=2)
    return gen.make_workload(200)


def _digest(events, profile: dict) -> str:
    return config_hash({
        "trace": [e.to_dict() for e in events],
        "profile": {name: [s["calls"], s["vcycles"]]
                    for name, s in profile["sections"].items()},
    })


def _batch_digest(case: str, engine: str) -> str:
    spec, sim_kw, exp_kw = CASES[case]
    exp = ExperimentConfig(
        sim=SimConfig(num_threads=4, engine=engine, **sim_kw), seed=3,
        **exp_kw)
    tracer = ListTracer()
    prof = Profiler(timing=False)
    prof.start()
    run_system(_workload(), make_system(spec), exp, tracer=tracer, prof=prof)
    prof.stop()
    return _digest(tracer.events, prof.to_dict())


def _open_system_digest(engine: str, tmp_path) -> str:
    trace = tmp_path / "open.jsonl"
    artifact = tmp_path / "open.json"
    code = main(["run", "--workload", "ycsb", "--bundle", "200",
                 "--threads", "4", "--records", "4000", "--theta", "0.9",
                 "--seed", "2", "--system", "tskd-cc", "--engine", engine,
                 "--offered-tps", "200000", "--profile",
                 "--trace", str(trace), "--export-json", str(artifact)])
    assert code == 0
    profile = json.loads(artifact.read_text())["profile"]
    return _digest(list(load_trace(trace)), profile)


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_instrumentation_pinned(case, engine):
    assert _batch_digest(case, engine) == GOLDEN[case]


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_open_system_instrumentation_pinned(engine, tmp_path, capsys):
    assert _open_system_digest(engine, tmp_path) \
        == GOLDEN["open-system"]
