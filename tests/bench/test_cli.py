"""Command-line interface coverage."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


SMALL = ("--bundle", "120", "--threads", "4", "--records", "20000",
         "--seed", "1")


class TestRun:
    def test_run_ycsb_tskd(self, capsys):
        code, out = run_cli(capsys, "run", "--workload", "ycsb", *SMALL,
                            "--system", "tskd-s")
        assert code == 0
        assert "TSKD[S]" in out and "txn/s" in out and "s%=" in out

    def test_run_tpcc_baseline(self, capsys):
        code, out = run_cli(capsys, "run", "--workload", "tpcc", "--bundle",
                            "100", "--threads", "4", "--warehouses", "4",
                            "--system", "horticulture")
        assert code == 0
        assert "txn/s" in out

    def test_run_with_io_and_no_skew(self, capsys):
        code, out = run_cli(capsys, "run", *SMALL, "--system", "dbcc",
                            "--no-skew", "--io", "20")
        assert code == 0

    def test_run_with_mvcc(self, capsys):
        code, out = run_cli(capsys, "run", *SMALL, "--system", "dbcc",
                            "--cc", "mvcc_ser")
        assert code == 0

    def test_unknown_system_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", *SMALL, "--system", "magic"])


class TestObservability:
    def test_export_json_writes_valid_artifact(self, capsys, tmp_path):
        from repro.obs import load_artifact

        out_path = tmp_path / "run.json"
        code, out = run_cli(capsys, "run", *SMALL, "--system", "tskd-s",
                            "--export-json", str(out_path))
        assert code == 0
        assert "artifact:" in out
        doc = load_artifact(out_path)  # validates on load
        assert doc["workload"] == "ycsb"
        assert doc["run"]["name"] == "TSKD[S]"

    def test_open_system_artifact_carries_run_metrics(self, capsys,
                                                      tmp_path):
        """An --offered-tps artifact has the batch run's registry."""
        from repro.obs import load_artifact

        out_path = tmp_path / "open.json"
        code, _ = run_cli(capsys, "run", *SMALL, "--system", "tskd-cc",
                          "--offered-tps", "200000",
                          "--export-json", str(out_path))
        assert code == 0
        doc = load_artifact(out_path)
        counters = doc["metrics"]["counters"]
        assert counters["engine.committed"] == doc["run"]["committed"] == 120
        assert any(n.startswith("cc.") for n in counters)
        assert any(n.startswith("tsdefer.") for n in counters)
        assert doc["metrics"]["gauges"]["run.throughput_txn_s"] > 0
        assert "open_system" in doc

    def test_trace_then_replay(self, capsys, tmp_path):
        trace_path = tmp_path / "run.trace.jsonl"
        code, out = run_cli(capsys, "run", *SMALL, "--system", "dbcc",
                            "--trace", str(trace_path))
        assert code == 0
        assert "trace:" in out
        code, out = run_cli(capsys, "trace", str(trace_path), "--limit", "10")
        assert code == 0
        assert "dispatch" in out and "trace summary" in out

    def test_report_renders_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "run.json"
        run_cli(capsys, "run", *SMALL, "--system", "dbcc",
                "--export-json", str(out_path))
        code, out = run_cli(capsys, "report", str(out_path))
        assert code == 0
        assert "txn/s" in out and "engine.committed" in out

    def test_report_unknown_schema_exits_2(self, capsys, tmp_path):
        import json

        bad = tmp_path / "future.json"
        bad.write_text(json.dumps({"schema": "repro.run/99", "run": {}}))
        code = main(["report", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown artifact version" in captured.err
        assert "repro.run/1" in captured.err  # tells the user what we speak

    def test_run_profile_prints_self_time_table(self, capsys, tmp_path):
        out_path = tmp_path / "run.json"
        code, out = run_cli(capsys, "run", *SMALL, "--system", "tskd-cc",
                            "--profile", "--export-json", str(out_path))
        assert code == 0
        assert "== profile (wall mode)" in out
        assert "engine.op" in out and "cc.occ.access" in out
        from repro.obs import load_artifact

        doc = load_artifact(out_path)
        sections = doc["profile"]["sections"]
        attributed = sum(s["wall_ns"] for s in sections.values())
        assert attributed >= 0.95 * doc["profile"]["total_wall_ns"]

    def test_trace_chrome_conversion(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "run.trace.jsonl"
        chrome_path = tmp_path / "run.chrome.json"
        run_cli(capsys, "run", *SMALL, "--system", "dbcc",
                "--trace", str(trace_path))
        code, out = run_cli(capsys, "trace", str(trace_path),
                            "--chrome", str(chrome_path))
        assert code == 0
        assert "chrome trace:" in out
        from repro.obs import validate_chrome_events

        doc = json.loads(chrome_path.read_text())
        assert validate_chrome_events(doc["traceEvents"]) is None


class TestCompare:
    def test_default_system_set(self, capsys):
        code, out = run_cli(capsys, "compare", *SMALL)
        assert code == 0
        for name in ("dbcc", "strife", "tskd-s", "tskd-cc"):
            assert name in out

    def test_explicit_systems(self, capsys):
        code, out = run_cli(capsys, "compare", *SMALL, "dbcc", "tskd-0")
        assert code == 0
        assert "tskd-0" in out and "strife" not in out


class TestExperimentAndTune:
    def test_experiment_subcommand_delegates(self, capsys):
        code, out = run_cli(capsys, "experiment", "fig5a", "--quick")
        assert code == 0
        assert "fig5a" in out

    def test_experiment_list_prints_every_id(self, capsys):
        from repro.bench.experiments import list_experiment_ids

        code, out = run_cli(capsys, "experiment", "--list")
        assert code == 0
        ids = out.split()
        assert ids == list_experiment_ids()
        assert "fig4a" in ids and "abl_cc_matrix" in ids

    def test_experiment_unknown_id_fails_listing_valid_ids(self, capsys):
        code = main(["experiment", "no_such_figure", "--quick"])
        captured = capsys.readouterr()
        assert code == 2
        assert "no_such_figure" in captured.err
        assert "fig4a" in captured.err and "fig5a" in captured.err

    def test_experiment_parallel_flags_and_resume(self, capsys, tmp_path):
        code, out = run_cli(capsys, "experiment", "fig5a", "--quick",
                            "--jobs", "1", "--cache-dir", str(tmp_path),
                            "--retries", "1")
        assert code == 0
        assert "cells=4" in out and "cached=0" in out and "failed=0" in out
        # Rerun with --resume: every cell must come from the cache.
        code, out = run_cli(capsys, "experiment", "fig5a", "--quick",
                            "--jobs", "2", "--cache-dir", str(tmp_path),
                            "--resume")
        assert code == 0
        assert "executed=0" in out and "cached=4" in out
        assert list((tmp_path / "cells" / "fig5a").glob("*.json"))

    def test_tune_prints_config(self, capsys):
        code, out = run_cli(capsys, "tune", "--workload", "ycsb", "--bundle",
                            "120", "--threads", "4", "--records", "20000")
        assert code == 0
        assert "#lookups=" in out
