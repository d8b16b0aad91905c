"""Differential equivalence: the fast engine IS the reference engine.

``repro.sim.fastengine.FastEngine`` replaces the reference event loop
with a flattened, batching implementation.  Its contract is *byte
identity*: same RNG draw streams, same virtual-clock event times, same
fault injection points, same commit histories, and therefore identical
Series payloads, metrics snapshots, and artifact digests.  This suite
pins that contract across:

* every registered CC protocol x YCSB / TPC-C (via the DBCC baseline);
* the TSKD variants and the partitioner baselines (Strife, Schism);
* chaos plans (every fault kind) x every restart policy;
* span streams and virtual profiles of traced and profiled runs;
* a Hypothesis-driven random-configuration case.

The artifact digest comparison hashes both artifacts against the *same*
config document: ``config.sim.engine`` is the selector under test and is
the one field allowed to differ between the two runs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import engine_of, make_system, run_system
from repro.bench.workloads import TpccGenerator, YcsbGenerator
from repro.cc import PROTOCOLS
from repro.common import ExperimentConfig, SimConfig, TpccConfig, YcsbConfig
from repro.common.config import RESTART_POLICIES
from repro.common.hashing import config_hash
from repro.faults import FaultPlan, FaultSpec
from repro.obs.artifact import build_artifact
from repro.obs.prof import Profiler
from repro.obs.tracing import ListTracer
from repro.sim import FastEngine, MulticoreEngine, make_engine


def ycsb(n=96, seed=3, theta=0.9):
    gen = YcsbGenerator(YcsbConfig(num_records=5_000, theta=theta,
                                   ops_per_txn=8), seed=seed)
    return gen.make_workload(n)


def tpcc(n=80, seed=4):
    gen = TpccGenerator(TpccConfig(num_warehouses=4,
                                   customers_per_district=20,
                                   items=50), seed=seed)
    return gen.make_workload(n)


WORKLOADS = {"ycsb": ycsb, "tpcc": tpcc}


def run_pair(workload, system, fault_plan=None, **sim_kw):
    """The same run under both engines; returns (fast, reference, exp)."""
    results = {}
    for engine in ("fast", "reference"):
        exp = ExperimentConfig(
            sim=SimConfig(num_threads=4, engine=engine, **sim_kw))
        results[engine] = run_system(
            workload, system, exp, fault_plan=fault_plan,
            record_history=True)
    # The exp used for digest comparison; engine choice is normalised to
    # "fast" for both documents (it is the only field allowed to differ).
    norm = ExperimentConfig(sim=SimConfig(num_threads=4, engine="fast",
                                          **sim_kw))
    return results["fast"], results["reference"], norm


def assert_equivalent(fast, ref, exp):
    # RunResult is a frozen dataclass (metrics registry excluded from
    # equality), so this pins committed/makespan/retries/latency/busy.
    assert fast == ref
    # Commit histories: every tid, commit time, and version vector.
    assert engine_of(fast).history == engine_of(ref).history
    # Full metrics snapshots, counter by counter.
    assert fast.metrics.to_dict() == ref.metrics.to_dict()
    # Artifact digests, bit for bit (engine selector normalised).
    digest_fast = config_hash(build_artifact(fast, config=exp))
    digest_ref = config_hash(build_artifact(ref, config=exp))
    assert digest_fast == digest_ref


class TestProtocolGrid:
    """Every registered protocol x workload family, via the DBCC path."""

    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    @pytest.mark.parametrize("proto", sorted(PROTOCOLS))
    def test_protocol_equivalence(self, proto, workload_name):
        w = WORKLOADS[workload_name]()
        fast, ref, exp = run_pair(w, "dbcc", cc=proto)
        assert_equivalent(fast, ref, exp)


class TestSystemGrid:
    """The paper's systems: TSKD variants and partitioner baselines."""

    @pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
    @pytest.mark.parametrize(
        "system", ["tskd-0", "tskd-cc", "tskd-s", "tskd-cc!", "strife",
                   "schism"])
    def test_system_equivalence(self, system, workload_name):
        w = WORKLOADS[workload_name]()
        fast, ref, exp = run_pair(w, make_system(system))
        assert_equivalent(fast, ref, exp)


CHAOS = FaultSpec(seed=7, spurious_aborts=4, stalls=2, crashes=1,
                  io_spikes=2, probe_corruptions=1)


class TestFaultGrid:
    """Chaos plans force the unbatched loop; injection points must
    land on identical virtual cycles under both engines."""

    @pytest.mark.parametrize("policy", sorted(RESTART_POLICIES))
    def test_chaos_equivalence_dbcc(self, policy):
        plan = FaultPlan.compile(CHAOS, 4)
        fast, ref, exp = run_pair(ycsb(), "dbcc", fault_plan=plan,
                                  restart_policy=policy)
        assert_equivalent(fast, ref, exp)

    @pytest.mark.parametrize("policy", sorted(RESTART_POLICIES))
    def test_chaos_equivalence_tskd(self, policy):
        plan = FaultPlan.compile(CHAOS, 4)
        fast, ref, exp = run_pair(ycsb(), make_system("tskd-cc"),
                                  fault_plan=plan, restart_policy=policy)
        assert_equivalent(fast, ref, exp)

    def test_empty_plan_still_batches_identically(self):
        # An installed-but-empty injector keeps batching ON (the plan is
        # disabled) and must stay inert under both engines.
        fast, ref, exp = run_pair(ycsb(), "dbcc", fault_plan=FaultPlan.none())
        assert_equivalent(fast, ref, exp)


def instrumented(workload, system, engine, fault_plan=None, **sim_kw):
    """Span streams of a traced run and of a traced, profiled run, plus
    the latter's virtual profile (calls and vcycles per section)."""
    exp = ExperimentConfig(sim=SimConfig(num_threads=4, engine=engine,
                                         **sim_kw))
    traced = ListTracer()
    run_system(workload, make_system(system), exp, tracer=traced,
               fault_plan=fault_plan)
    both = ListTracer()
    prof = Profiler(timing=False)
    prof.start()
    run_system(workload, make_system(system), exp, tracer=both, prof=prof,
               fault_plan=fault_plan)
    prof.stop()
    return traced.events, both.events, prof.to_dict()


class TestInstrumentationGrid:
    """Traces and virtual profiles are part of the contract: a traced
    fast run keeps its inlined OCC path, a profiled one calls the
    wrapped protocol, and both must match the reference event for event
    and section for section."""

    @pytest.mark.parametrize("cc", ["nowait", "occ", "silo", "waitdie"])
    @pytest.mark.parametrize("system", ["dbcc", "tskd-cc", "tskd-s"])
    def test_trace_and_profile_equivalence(self, system, cc):
        fast = instrumented(ycsb(), system, "fast", cc=cc)
        ref = instrumented(ycsb(), system, "reference", cc=cc)
        assert fast[0] and fast[0] == fast[1]
        assert fast == ref

    def test_chaos_trace_and_profile_equivalence(self):
        plan = FaultPlan.compile(CHAOS, 4)
        fast = instrumented(ycsb(), "tskd-cc", "fast", fault_plan=plan)
        ref = instrumented(ycsb(), "tskd-cc", "reference", fault_plan=plan)
        assert fast == ref


class TestEngineSelection:
    """make_engine honours the config selector."""

    def test_selector(self):
        assert type(make_engine(SimConfig(engine="fast"))) is FastEngine
        assert type(make_engine(SimConfig(engine="reference"))) \
            is MulticoreEngine

    def test_fast_is_default(self):
        assert SimConfig().engine == "fast"


class TestRandomConfigs:
    """Hypothesis sweep over the config space the grids do not pin."""

    @settings(max_examples=8, deadline=None)
    @given(
        proto=st.sampled_from(sorted(PROTOCOLS)),
        policy=st.sampled_from(sorted(RESTART_POLICIES)),
        threads=st.integers(min_value=2, max_value=6),
        theta=st.sampled_from([0.0, 0.6, 0.99]),
        seed=st.integers(min_value=0, max_value=2**16),
        chaos=st.booleans(),
    )
    def test_random_config_equivalence(self, proto, policy, threads,
                                       theta, seed, chaos):
        w = ycsb(n=48, seed=seed % 97, theta=theta)
        plan = (FaultPlan.compile(FaultSpec(seed=seed, spurious_aborts=2,
                                            stalls=1, io_spikes=1), threads)
                if chaos else None)
        results = {}
        for engine in ("fast", "reference"):
            exp = ExperimentConfig(
                seed=seed,
                sim=SimConfig(num_threads=threads, cc=proto,
                              restart_policy=policy, engine=engine))
            results[engine] = run_system(w, "dbcc", exp, fault_plan=plan,
                                         record_history=True)
        fast, ref = results["fast"], results["reference"]
        assert fast == ref
        assert engine_of(fast).history == engine_of(ref).history
        assert fast.metrics.to_dict() == ref.metrics.to_dict()
