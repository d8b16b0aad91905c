"""Determinism and resume guarantees of the parallel cell executor.

The contract under test (docs/parallel.md): for any experiment, the
executor's output is bit-for-bit identical for every ``jobs`` value,
identical to the sequential harness, identical after resume, and one
crashing cell never takes down the sweep.
"""

from __future__ import annotations

import copyreg
import io
import pickle

import pytest

from repro.bench import cache as workload_cache
from repro.bench.experiments import (
    EXPERIMENTS,
    Scale,
    UnknownExperimentError,
    default_exp,
    lookup_experiment,
    run_experiment,
    ycsb_workload,
)
from repro.bench.parallel import (
    CellPlanError,
    VECTOR_LEN,
    cell_artifact_path,
    plan_experiment,
    run_experiment_cells,
)
from repro.bench.reporting import Series
from repro.bench.workloads import YcsbGenerator
from repro.common import ConfigError
from repro.common.config import YcsbConfig
from repro.obs import load_artifact
from repro.txn import Operation

#: Small enough that pooled runs stay in seconds; two seeds so the
#: seed-averaging float arithmetic is actually exercised.
TINY = Scale(name="quick", bundle=48, seeds=(0, 1), threads=4,
             ycsb_records=20_000, tpcc_warehouses=4)


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Isolate the process-wide workload cache per test."""
    workload_cache.configure(None)
    yield
    workload_cache.configure(None)


@pytest.fixture(scope="module")
def fig5a_runs(tmp_path_factory):
    """One pooled jobs=1 and one pooled jobs=4 run of a YCSB experiment."""
    cache_dir = tmp_path_factory.mktemp("fig5a-cells")
    s1, r1 = run_experiment_cells("fig5a", TINY, jobs=1, cache_dir=cache_dir)
    s4, r4 = run_experiment_cells("fig5a", TINY, jobs=4)
    return cache_dir, (s1, r1), (s4, r4)


class TestDeterminism:
    def test_ycsb_jobs4_bit_identical_to_jobs1(self, fig5a_runs):
        _cache, (s1, r1), (s4, r4) = fig5a_runs
        assert r1.failed == [] and r4.failed == []
        assert r1.total_cells == r4.total_cells == 8  # 2 x * 2 sys * 2 seeds
        assert s1.to_payload() == s4.to_payload()

    def test_tpcc_jobs2_bit_identical_to_jobs1(self):
        s1, r1 = run_experiment_cells("fig4l", TINY, jobs=1)
        s2, r2 = run_experiment_cells("fig4l", TINY, jobs=2)
        assert r1.failed == [] and r2.failed == []
        assert s1.to_payload() == s2.to_payload()

    def test_inline_executor_matches_sequential_harness(self):
        """Cell decomposition in-process reproduces the legacy loop
        exactly — same workload sharing, same float accumulation."""
        sequential = run_experiment("fig5a", TINY)
        cells, _ = run_experiment_cells("fig5a", TINY, jobs=1, inline=True)
        assert cells.to_payload() == sequential.to_payload()

    def test_pooled_matches_sequential_for_this_experiment(self, fig5a_runs):
        # fig5a's code path is hash-seed independent, so even across the
        # process boundary the pooled run must equal the in-process one.
        _cache, (s1, _r1), _ = fig5a_runs
        assert s1.to_payload() == run_experiment("fig5a", TINY).to_payload()

    def test_run_experiment_jobs_kwarg_routes_to_executor(self):
        series = run_experiment("fig5a", TINY, jobs=1)
        assert series.to_payload() == run_experiment("fig5a", TINY).to_payload()


class TestResume:
    def test_rerun_with_resume_is_all_cache_hits(self, fig5a_runs):
        cache_dir, (s1, r1), _ = fig5a_runs
        s, r = run_experiment_cells("fig5a", TINY, jobs=1,
                                    cache_dir=cache_dir, resume=True)
        assert r.resumed == r.total_cells and r.executed == 0
        assert s.to_payload() == s1.to_payload()

    def test_interrupted_run_resumes_to_identical_series(self, fig5a_runs):
        cache_dir, (s1, _r1), _ = fig5a_runs
        _series, points, scale_hash = plan_experiment("fig5a", TINY)
        from repro.bench.parallel import _cells_of

        cells = _cells_of("fig5a", points, scale_hash)
        # Simulate an interrupt: three cells' artifacts never got written.
        for key in cells[:3]:
            cell_artifact_path(cache_dir, key).unlink()
        s, r = run_experiment_cells("fig5a", TINY, jobs=2,
                                    cache_dir=cache_dir, resume=True)
        assert r.resumed == len(cells) - 3 and r.executed == 3
        assert s.to_payload() == s1.to_payload()

    def test_corrupt_artifact_is_re_run_not_trusted(self, fig5a_runs):
        cache_dir, (s1, _r1), _ = fig5a_runs
        _series, points, scale_hash = plan_experiment("fig5a", TINY)
        from repro.bench.parallel import _cells_of

        key = _cells_of("fig5a", points, scale_hash)[0]
        cell_artifact_path(cache_dir, key).write_text("{not json", "utf-8")
        s, r = run_experiment_cells("fig5a", TINY, jobs=1,
                                    cache_dir=cache_dir, resume=True)
        assert r.executed == 1 and r.resumed == r.total_cells - 1
        assert s.to_payload() == s1.to_payload()

    def test_tampered_vector_value_is_re_run_not_trusted(self, fig5a_runs):
        """Bit-rot inside a well-formed artifact: the JSON still parses
        and schema-validates, but the vector digest no longer matches."""
        import json as _json

        cache_dir, (s1, _r1), _ = fig5a_runs
        _series, points, scale_hash = plan_experiment("fig5a", TINY)
        from repro.bench.parallel import _cells_of

        key = _cells_of("fig5a", points, scale_hash)[1]
        path = cell_artifact_path(cache_dir, key)
        doc = _json.loads(path.read_text("utf-8"))
        doc["cell"]["vector"][0] = 999_999.0
        path.write_text(_json.dumps(doc), "utf-8")
        s, r = run_experiment_cells("fig5a", TINY, jobs=1,
                                    cache_dir=cache_dir, resume=True)
        assert r.executed == 1 and r.resumed == r.total_cells - 1
        assert s.to_payload() == s1.to_payload()

    def test_resume_requires_cache_dir(self):
        with pytest.raises(ConfigError):
            run_experiment_cells("fig5a", TINY, jobs=1, resume=True)


class TestCellArtifacts:
    def test_every_cell_artifact_schema_validates(self, fig5a_runs):
        cache_dir, (_s1, r1), _ = fig5a_runs
        paths = sorted((cache_dir / "cells" / "fig5a").glob("*.json"))
        assert len(paths) == r1.total_cells
        for path in paths:
            doc = load_artifact(path)  # repro.run/1 validation
            cell = doc["cell"]
            assert cell["schema"] == "repro.cell/1"
            assert cell["exp_id"] == "fig5a"
            assert len(cell["vector"]) == VECTOR_LEN
            assert doc["run"]["committed"] == TINY.bundle

    def test_workloads_cached_on_disk(self, fig5a_runs):
        cache_dir, (_s1, _r1), _ = fig5a_runs
        # 2 sweep points x 2 seeds, shared by both systems of each point.
        assert len(list((cache_dir / "workloads").glob("*.pkl"))) == 4


# ---------------------------------------------------------------------------
# failure isolation and retries (inline mode: crash injection needs the
# monkeypatched registry, which spawn workers cannot see)
# ---------------------------------------------------------------------------
_FLAKY_STATE = {"raises_left": 0}


def _exploding_system():
    raise RuntimeError("injected cell crash")


def _flaky_system():
    if _FLAKY_STATE["raises_left"] > 0:
        _FLAKY_STATE["raises_left"] -= 1
        raise RuntimeError("transient cell crash")
    return "dbcc"


def _crashy_experiment(scale: Scale) -> Series:
    exp = default_exp(scale)
    xs = [0.7, 0.9]
    s = Series("crashy", "crash-injection experiment", "theta", xs)
    for theta in xs:
        systems = [("OK", lambda: "dbcc"), ("BOOM", _exploding_system)]
        from repro.bench.experiments import measure_point

        measure_point(s, theta,
                      lambda seed, th=theta: ycsb_workload(scale, exp, th, seed),
                      systems, exp, scale.seeds)
    return s


def _flaky_experiment(scale: Scale) -> Series:
    exp = default_exp(scale)
    s = Series("flaky", "transient-crash experiment", "theta", [0.8])
    from repro.bench.experiments import measure_point

    measure_point(s, 0.8,
                  lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                  [("FLAKY", _flaky_system)], exp, scale.seeds)
    return s


class TestFailureIsolation:
    def test_crashing_cells_do_not_kill_the_sweep(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "crashy", _crashy_experiment)
        s, r = run_experiment_cells("crashy", TINY, jobs=1, inline=True)
        boom = [key for key, _err in r.failed]
        assert len(boom) == 4 and all(k.system == "BOOM" for k in boom)
        assert r.executed == r.total_cells - 4
        for x in s.x_values:  # the healthy system still measured
            assert s.get("OK", x).throughput > 0
            assert s.get("BOOM", x) is None  # hole, not garbage
        assert any("BOOM" in note and "failed" in note for note in s.notes)

    def test_retries_recover_transient_crashes(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "flaky", _flaky_experiment)
        _FLAKY_STATE["raises_left"] = 1
        s, r = run_experiment_cells("flaky", TINY, jobs=1, inline=True,
                                    retries=1)
        assert r.failed == [] and r.executed == r.total_cells
        assert s.get("FLAKY", 0.8).throughput > 0

    def test_without_retries_the_transient_crash_sticks(self, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, "flaky", _flaky_experiment)
        _FLAKY_STATE["raises_left"] = 1
        s, r = run_experiment_cells("flaky", TINY, jobs=1, inline=True)
        assert len(r.failed) == 1
        assert s.get("FLAKY", 0.8) is None


class TestWorkloadCache:
    def test_one_build_per_sweep_point_not_per_cell(self):
        cache = workload_cache.configure(None)
        _s, r = run_experiment_cells("fig5a", TINY, jobs=1, inline=True)
        # 8 cells asked for a workload; only 2 x * 2 seeds = 4 builds ran.
        assert r.total_cells == 8
        assert cache.builds == 4
        assert cache.memo_hits == 4

    def test_disk_cache_survives_process_cache_reset(self, tmp_path):
        workload_cache.configure(tmp_path)
        run_experiment_cells("fig5a", TINY, jobs=1, inline=True,
                             cache_dir=tmp_path)
        cache = workload_cache.configure(tmp_path)  # fresh memo, same disk
        run_experiment_cells("fig5a", TINY, jobs=1, inline=True,
                             cache_dir=tmp_path)
        assert cache.builds == 0
        assert cache.disk_hits == 4


    def test_build_in_an_older_layout_is_a_miss(self, tmp_path, monkeypatch):
        # Format /1 pickled operations as frozen dataclasses: NEWOBJ with
        # no arguments, then a BUILD of the field dict.  Such a file must
        # be rebuilt, whether it sits under its own (old-format) key or,
        # corrupted or hand-copied, under the current one.
        class OldLayout(pickle.Pickler):
            def reducer_override(self, obj):
                if type(obj) is Operation:
                    return (copyreg.__newobj__, (Operation,),
                            {"kind": obj.kind, "table": obj.table,
                             "key": obj.key, "value": obj.value})
                return NotImplemented

        def build():
            return YcsbGenerator(YcsbConfig(num_records=100, ops_per_txn=4),
                                 seed=3).make_workload(20)

        buf = io.BytesIO()
        OldLayout(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(build())
        with pytest.raises(TypeError):
            pickle.loads(buf.getvalue())  # the old layout cannot load
        args = ("ycsb", {"records": 100}, 20, None, 3)
        key = workload_cache.workload_key(*args)
        monkeypatch.setattr(workload_cache, "DISK_FORMAT", "repro.workload/1")
        old_key = workload_cache.workload_key(*args)
        monkeypatch.undo()
        assert workload_cache.DISK_FORMAT == "repro.workload/2"
        assert old_key != key
        cache = workload_cache.WorkloadCache(cache_dir=tmp_path)
        for k in (old_key, key):
            cache._path(k).parent.mkdir(parents=True, exist_ok=True)
            cache._path(k).write_bytes(buf.getvalue())
        got = cache.get_or_build(key, build)
        assert (cache.builds, cache.disk_hits) == (1, 0)
        assert [t.ops for t in got] == [t.ops for t in build()]
        # The rebuild replaced the stale file: a fresh process now hits it.
        again = workload_cache.WorkloadCache(cache_dir=tmp_path)
        assert again.get_or_build(key, build) is not None
        assert (again.builds, again.disk_hits) == (0, 1)


class TestPlanning:
    def test_plan_enumerates_the_sequential_nesting(self):
        series, points, _scale_hash = plan_experiment("fig5a", TINY)
        assert series.exp_id == "fig5a" and series.cells == {}
        assert [p.x for p in points] == series.x_values
        for p in points:
            assert p.systems == ["DBCC", "TSKD[CC]"]
            assert p.seeds == list(TINY.seeds)

    def test_duplicate_cells_are_rejected(self, monkeypatch):
        def twice(scale):
            exp = default_exp(scale)
            s = Series("twice", "duplicate point", "x", [1])
            from repro.bench.experiments import measure_point

            for _ in range(2):
                measure_point(s, 1,
                              lambda seed: ycsb_workload(scale, exp, 0.8, seed),
                              [("DBCC", lambda: "dbcc")], exp, scale.seeds)
            return s

        monkeypatch.setitem(EXPERIMENTS, "twice", twice)
        with pytest.raises(CellPlanError):
            plan_experiment("twice", TINY)

    def test_experiment_without_cells_falls_back_to_sequential(self):
        s, r = run_experiment_cells("overhead", TINY, jobs=2)
        assert r.sequential_fallback
        assert s.exp_id == "overhead" and s.cells

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError):
            run_experiment_cells("fig5a", TINY, jobs=0)


class TestExperimentLookup:
    def test_unknown_id_lists_valid_ids(self):
        with pytest.raises(UnknownExperimentError) as e:
            run_experiment("no_such_figure", TINY)
        message = str(e.value)
        assert "no_such_figure" in message
        assert "fig4a" in message and "abl_tsgen" in message

    def test_unknown_id_still_catchable_as_keyerror(self):
        with pytest.raises(KeyError):
            run_experiment("no_such_figure", TINY)

    def test_dotted_path_lookup(self):
        fn = lookup_experiment("repro.bench.experiments:fig5a")
        assert fn is EXPERIMENTS["fig5a"]

    def test_dotted_path_to_nothing_is_unknown(self):
        with pytest.raises(UnknownExperimentError):
            lookup_experiment("repro.bench.experiments:not_there")


# ---------------------------------------------------------------------------
# fault-injection differential (repro.faults; docs/faults.md)
# ---------------------------------------------------------------------------
from repro.bench.experiments import tpcc_workload  # noqa: E402
from repro.bench.runner import run_system  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.obs import export_run  # noqa: E402


class TestFaultDifferential:
    """An installed-but-empty fault plan must be invisible: the exported
    repro.run/1 artifact is byte-identical to one from a run that never
    saw the faults layer."""

    @pytest.mark.parametrize("kind", ["ycsb", "tpcc"])
    def test_none_plan_artifact_byte_identical(self, kind, tmp_path):
        exp = default_exp(TINY)
        if kind == "ycsb":
            workload = ycsb_workload(TINY, exp, 0.8, seed=0)
        else:
            workload = tpcc_workload(TINY, exp, seed=0)
        base = run_system(workload, "dbcc", exp)
        nulled = run_system(workload, "dbcc", exp,
                            fault_plan=FaultPlan.none())
        p_base = tmp_path / f"{kind}-base.json"
        p_null = tmp_path / f"{kind}-null.json"
        export_run(p_base, base, config=exp, workload=kind)
        export_run(p_null, nulled, config=exp, workload=kind)
        assert p_base.read_bytes() == p_null.read_bytes()

    @pytest.mark.parametrize("jobs", [1, 4])
    @pytest.mark.parametrize("exp_id", ["fig5a", "fig4l"])
    def test_unfaulted_cells_carry_no_fault_digest(self, exp_id, jobs,
                                                   tmp_path):
        """YCSB (fig5a) and TPC-C (fig4l) sweeps never set exp.faults, so
        every cell key's fault digest is empty at any jobs count — the
        cache-compatibility half of the differential."""
        _s, r = run_experiment_cells(exp_id, TINY, jobs=jobs,
                                     cache_dir=tmp_path)
        assert r.failed == []
        paths = sorted((tmp_path / "cells" / exp_id).glob("*.json"))
        assert len(paths) == r.total_cells
        for path in paths:
            assert load_artifact(path)["cell"]["faults"] == ""


class TestFaultedParallelDeterminism:
    def test_abl_faults_jobs4_bit_identical_to_jobs1(self):
        """Chaos cells replay exactly across the process boundary: the
        fault plan compiles from (spec, threads) alone, so spawn workers
        reconstruct the identical timeline."""
        s1, r1 = run_experiment_cells("abl_faults", TINY, jobs=1)
        s4, r4 = run_experiment_cells("abl_faults", TINY, jobs=4)
        assert r1.failed == [] and r4.failed == []
        assert s1.to_payload() == s4.to_payload()

    def test_fault_digest_lands_in_cell_keys(self, tmp_path):
        _s, r = run_experiment_cells("abl_faults", TINY, jobs=1,
                                     cache_dir=tmp_path)
        assert r.failed == []
        docs = [load_artifact(p) for p in
                sorted((tmp_path / "cells" / "abl_faults").glob("*.json"))]
        digests = {doc["cell"]["faults"] for doc in docs}
        assert "" in digests  # the 'none' scenario cells
        assert len(digests) == 2  # ... plus the chaos-plan digest
        assert all(len(d) == 64 for d in digests if d)
