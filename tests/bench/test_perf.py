"""Perf trajectory: BENCH schema validation and the quick runner."""

import json

import pytest

from repro.obs.artifact import (
    BENCH_SCHEMA_ID,
    ArtifactError,
    validate_bench_artifact,
)
from repro.bench.perf import (
    compare_bench,
    git_rev,
    machine_info,
    render_bench,
)


def bench_doc(**over) -> dict:
    doc = {
        "schema": BENCH_SCHEMA_ID,
        "rev": "abc1234",
        "quick": True,
        "machine": {"platform": "TestOS", "python": "3.12.0",
                    "cpu_count": 8},
        "cases": [
            {"name": "fig5.ycsb.t08.dbcc", "kind": "sim", "wall_s": 0.5,
             "committed": 400, "wall_txn_s": 800.0},
            {"name": "serve.loadgen.closed", "kind": "serve", "wall_s": 1.2,
             "committed": 200, "wall_txn_s": 166.7},
        ],
    }
    doc.update(over)
    return doc


class TestBenchSchema:
    def test_valid_doc_passes(self):
        validate_bench_artifact(bench_doc())

    def test_wrong_schema_rejected(self):
        with pytest.raises(ArtifactError):
            validate_bench_artifact(bench_doc(schema="repro.bench/2"))

    def test_empty_cases_rejected(self):
        with pytest.raises(ArtifactError):
            validate_bench_artifact(bench_doc(cases=[]))

    def test_duplicate_case_names_rejected(self):
        doc = bench_doc()
        doc["cases"].append(dict(doc["cases"][0]))
        with pytest.raises(ArtifactError):
            validate_bench_artifact(doc)

    def test_negative_wall_rejected(self):
        doc = bench_doc()
        doc["cases"][0]["wall_s"] = -1.0
        with pytest.raises(ArtifactError):
            validate_bench_artifact(doc)

    def test_unknown_kind_rejected(self):
        doc = bench_doc()
        doc["cases"][0]["kind"] = "gpu"
        with pytest.raises(ArtifactError):
            validate_bench_artifact(doc)

    def test_missing_machine_field_rejected(self):
        doc = bench_doc()
        del doc["machine"]["python"]
        with pytest.raises(ArtifactError):
            validate_bench_artifact(doc)

    def test_committed_baseline_validates(self):
        """Every BENCH_*.json checked into the repo must stay loadable."""
        from pathlib import Path

        results = Path(__file__).resolve().parents[2] / "benchmarks/results"
        baselines = sorted(results.glob("BENCH_*.json"))
        assert baselines, "no committed BENCH baseline found"
        for path in baselines:
            validate_bench_artifact(json.loads(path.read_text()))


class TestHelpers:
    def test_machine_info_fields(self):
        m = machine_info()
        assert set(m) == {"platform", "python", "cpu_count"}
        assert m["cpu_count"] >= 1

    def test_git_rev_falls_back(self, monkeypatch):
        import subprocess

        def boom(*a, **kw):
            raise OSError("no git")

        monkeypatch.setattr(subprocess, "run", boom)
        assert git_rev(default="dev") == "dev"

    def test_render_bench_summarises_cases(self):
        text = render_bench(bench_doc())
        assert "perf abc1234" in text
        assert "fig5.ycsb.t08.dbcc" in text
        assert "serve" in text


class TestCompareBench:
    def test_identical_docs_pass(self):
        ok, report = compare_bench(bench_doc(), bench_doc())
        assert ok
        assert "REGRESSION" not in report

    def test_sim_regression_fails(self):
        new = bench_doc()
        new["cases"][0]["wall_s"] = 0.5 * 1.25  # +25% wall, same txns
        ok, report = compare_bench(new, bench_doc())
        assert not ok
        assert "REGRESSION" in report

    def test_within_tolerance_passes(self):
        new = bench_doc()
        new["cases"][0]["wall_s"] = 0.5 * 1.15
        ok, _ = compare_bench(new, bench_doc())
        assert ok

    def test_serve_case_is_informational(self):
        new = bench_doc()
        new["cases"][1]["wall_s"] = 1.2 * 3.0  # serve 3x slower: no gate
        ok, report = compare_bench(new, bench_doc())
        assert ok
        assert "info only" in report

    def test_normalised_per_txn_gates_across_scales(self):
        # A quick-scale run (fewer txns, proportionally less wall) must
        # compare clean against a standard-scale baseline.
        new = bench_doc()
        new["cases"][0].update(wall_s=0.125, committed=100)
        ok, _ = compare_bench(new, bench_doc())
        assert ok

    def test_unmatched_cases_reported_not_gated(self):
        new = bench_doc()
        new["cases"][0] = dict(new["cases"][0], name="fig9.new.case")
        ok, report = compare_bench(new, bench_doc())
        assert ok
        assert "no baseline" in report
        assert "dropped from the new run" in report


class TestQuickRunner:
    def test_quick_run_writes_valid_bench(self, tmp_path):
        from repro.bench.perf import run_perf

        path, doc = run_perf(quick=True, out_dir=str(tmp_path), rev="t0",
                             repeat=1)
        validate_bench_artifact(doc)
        on_disk = json.loads(open(path).read())
        assert on_disk["rev"] == "t0"
        names = [c["name"] for c in on_disk["cases"]]
        assert "serve.loadgen.closed" in names
        assert "drift.ycsb.t09.tskd-0.adaptive" in names
        sim = [c for c in on_disk["cases"] if c["kind"] == "sim"]
        assert all(c["profile_top"] for c in sim)
