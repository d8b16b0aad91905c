"""Profiler: section accounting, determinism, zero perturbation."""

import pytest

from repro.bench.runner import make_system, run_system
from repro.common.config import ExperimentConfig, SimConfig, YcsbConfig
from repro.bench.workloads import YcsbGenerator
from repro.obs.prof import (
    ROOT_SECTION,
    Profiler,
    activate_profiler,
    deactivate_profiler,
    get_active_profiler,
)
from repro.obs.report import render_profile
from repro.obs.tracing import ListTracer

EXP = ExperimentConfig(sim=SimConfig(num_threads=4), bundle_size=120, seed=3)


def small_workload(n=120, seed=3):
    gen = YcsbGenerator(YcsbConfig(num_records=20_000, theta=0.8), seed=seed)
    return gen.make_workload(n)


class TestProfilerUnit:
    def test_lifecycle_errors(self):
        p = Profiler()
        with pytest.raises(RuntimeError):
            p.stop()
        p.start()
        with pytest.raises(RuntimeError):
            p.start()
        p.stop()
        with pytest.raises(RuntimeError):
            p.stop()

    def test_sections_sum_exactly_to_total(self):
        p = Profiler()
        p.start()
        p.push("a")
        sum(range(10_000))
        p.push("b")
        sum(range(10_000))
        p.pop()
        p.pop()
        p.stop()
        doc = p.to_dict()
        assert doc["mode"] == "wall"
        assert sum(s["wall_ns"] for s in doc["sections"].values()) \
            == doc["total_wall_ns"]
        assert doc["total_wall_ns"] > 0
        assert set(doc["sections"]) == {ROOT_SECTION, "a", "b"}
        # b's time is self time, not a's: both saw real work.
        assert doc["sections"]["a"]["wall_ns"] > 0
        assert doc["sections"]["b"]["wall_ns"] > 0

    def test_stop_drains_unbalanced_stack(self):
        p = Profiler()
        p.start()
        p.push("left.open")
        p.stop()  # must not raise; remainder lands on the open section
        doc = p.to_dict()
        assert sum(s["wall_ns"] for s in doc["sections"].values()) \
            == doc["total_wall_ns"]

    def test_count_and_vcycles_do_not_touch_wall(self):
        p = Profiler(timing=False)
        p.start()
        p.count("hits", 3)
        p.add_vcycles("work", 1_500)
        p.add_vcycles("work", 500)
        p.stop()
        doc = p.to_dict()
        assert doc["mode"] == "virtual"
        assert doc["total_wall_ns"] == 0
        assert doc["sections"]["hits"]["calls"] == 3
        assert doc["sections"]["work"]["vcycles"] == 2_000

    def test_virtual_mode_never_reads_clock(self):
        p = Profiler(timing=False)
        p.start()
        p.push("a")
        p.pop()
        p.stop()
        assert all(s["wall_ns"] == 0 for s in p.to_dict()["sections"].values())

    def test_active_profiler_registry(self):
        assert get_active_profiler() is None
        p = Profiler()
        activate_profiler(p)
        try:
            assert get_active_profiler() is p
        finally:
            deactivate_profiler()
        assert get_active_profiler() is None


class TestTracedAndProfiledRun:
    def test_every_emission_charges_obs_trace(self):
        """With both sinks, each span event is one obs.trace section
        call, and the span stream is the traced-only run's stream."""
        w = small_workload()
        plain = ListTracer()
        run_system(w, make_system("tskd-cc"), EXP, tracer=plain)
        traced = ListTracer()
        p = Profiler(timing=False)
        p.start()
        run_system(w, make_system("tskd-cc"), EXP, tracer=traced, prof=p)
        p.stop()
        assert traced.events and traced.events == plain.events
        assert p.to_dict()["sections"]["obs.trace"]["calls"] \
            == len(traced.events)


class TestProfiledRun:
    def test_zero_perturbation_of_run_result(self):
        """A profiled run schedules bit-identically to an unprofiled one."""
        w = small_workload()
        base = run_system(w, make_system("tskd-cc"), EXP)
        prof = Profiler(timing=False)
        prof.start()
        profiled = run_system(w, make_system("tskd-cc"), EXP, prof=prof)
        prof.stop()
        assert profiled == base  # metrics excluded from equality by design

    def test_virtual_profile_is_deterministic(self):
        w = small_workload()
        docs = []
        for _ in range(2):
            prof = Profiler(timing=False)
            prof.start()
            run_system(w, make_system("tskd-cc"), EXP, prof=prof)
            prof.stop()
            docs.append(prof.to_dict())
        assert docs[0] == docs[1]

    def test_wall_profile_covers_engine_sections(self):
        w = small_workload()
        prof = Profiler()
        prof.start()
        run_system(w, make_system("tskd-cc"), EXP, prof=prof)
        prof.stop()
        doc = prof.to_dict()
        names = set(doc["sections"])
        for expected in ("engine.loop", "engine.op", "cc.occ.access",
                         "tsdefer.filter", "progress_table.probe",
                         "bench.warmup"):
            assert expected in names, f"missing section {expected}"
        # The acceptance bar: attributed self-time >= 95% of wall total
        # (exact equality here, since the root section absorbs the rest).
        attributed = sum(s["wall_ns"] for s in doc["sections"].values())
        assert attributed >= 0.95 * doc["total_wall_ns"]
        assert attributed == doc["total_wall_ns"]
        # Deterministic cost attribution rides along in wall mode too.
        assert doc["sections"]["engine.op"]["vcycles"] > 0

    def test_render_profile_output(self):
        prof = Profiler(timing=False)
        prof.start()
        run_system(small_workload(), make_system("dbcc"), EXP, prof=prof)
        prof.stop()
        text = render_profile(prof.to_dict())
        assert "profile (virtual mode)" in text
        assert "engine.op" in text
        assert "vcycles" in text

    def test_render_profile_empty(self):
        p = Profiler(timing=False)
        p.start()
        p.stop()
        assert "(no sections recorded)" in render_profile(
            {"mode": "virtual", "total_wall_ns": 0, "sections": {}})
