"""Tests for the pacon-bench CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mdtest_defaults(self):
        args = build_parser().parse_args(["mdtest"])
        assert args.system == "pacon"
        assert args.items == 50

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_stats_defaults(self):
        """An unobserved mdtest asks for no view of its run."""
        args = build_parser().parse_args(["mdtest"])
        assert args.nodes == 4
        assert (args.metrics_out, args.trace_out, args.log_out,
                args.profile_out) == (None, None, None, None)

    def test_trace_filters(self):
        args = build_parser().parse_args(
            ["mdtest", "--kind", "op.end", "--limit", "10"])
        assert args.kind == "op.end"
        assert args.limit == 10


class TestCommands:
    def test_mdtest_runs(self, capsys):
        rc = main(["mdtest", "--system", "pacon", "--nodes", "2",
                   "--clients-per-node", "2", "--items", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mkdir" in out and "create" in out and "ops/s" in out

    def test_mdtest_beegfs_custom_phases(self, capsys):
        rc = main(["mdtest", "--system", "beegfs", "--nodes", "1",
                   "--clients-per-node", "2", "--items", "4",
                   "--phases", "create,rm"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rm" in out
        assert "mkdir" not in out

    def test_mdtest_indexfs_rm_phase(self, capsys):
        """The rm phase is why IndexFS keeps ``unlink``."""
        rc = main(["mdtest", "--system", "indexfs", "--nodes", "2",
                   "--clients-per-node", "2", "--items", "4",
                   "--phases", "create,rm"])
        assert rc == 0
        assert "rm" in capsys.readouterr().out

    def test_madbench_runs(self, capsys):
        rc = main(["madbench", "--system", "pacon", "--nodes", "2",
                   "--procs-per-node", "2", "--file-size", "262144",
                   "--iterations", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total:" in out and "write" in out

    def test_figure_table1(self, capsys):
        rc = main(["figure", "table1", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "table1" in out and "match" in out

    def test_all_writes_report_and_snapshot(self, tmp_path, capsys):
        out_file = tmp_path / "r.md"
        bench_file = tmp_path / "BENCH_t.json"
        rc = main(["all", "--scale", "smoke", "--out", str(out_file),
                   "--bench-out", str(bench_file)])
        assert rc == 0
        content = out_file.read_text()
        assert "## fig07" in content
        assert "## sensitivity" in content
        doc = json.loads(bench_file.read_text())
        assert doc["schema"] == "pacon.bench/v1"
        assert doc["seed"] == 0xBEE
        assert "fig07" in doc["experiments"]
        assert doc["host"]["wall_clock_s"] > 0


def _bench_doc(label="a", **derived):
    """A minimal valid pacon.bench/v1 document for CLI tests."""
    derived = derived or {"speedup": 2.0}
    return {
        "schema": "pacon.bench/v1",
        "label": label,
        "scale": "smoke",
        "seed": 0xBEE,
        "experiments": {
            "figX": {
                "title": "t", "scale": "smoke", "seed": 0xBEE,
                "params": {}, "rows": [{"system": "pacon", "ops": 100.0}],
                "derived": dict(derived), "notes": [],
                "host": {"wall_clock_s": 0.1},
            },
        },
        "host": {"wall_clock_s": 0.1, "generated_at": label},
    }


class TestCompareCommand:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_identical_snapshots_exit_zero(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _bench_doc("a"))
        b = self._write(tmp_path, "b.json", _bench_doc("b"))
        rc = main(["compare", a, b])
        assert rc == 0
        assert "OK — no regressions" in capsys.readouterr().out

    def test_regression_exits_one_and_names_metric(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _bench_doc("a", speedup=2.0))
        b = self._write(tmp_path, "b.json", _bench_doc("b", speedup=1.5))
        rc = main(["compare", a, b])
        assert rc == 1
        out = capsys.readouterr().out
        assert "figX.derived.speedup" in out
        assert "-25.00%" in out
        assert "must match exactly" in out

    def test_json_output(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _bench_doc("a", speedup=2.0))
        b = self._write(tmp_path, "b.json", _bench_doc("b", speedup=4.0))
        rc = main(["compare", a, b, "--json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert any(d["metric"] == "figX.derived.speedup"
                   for d in doc["deltas"])

    def test_schema_mismatch_exits_two(self, tmp_path, capsys):
        old = _bench_doc("old")
        old["schema"] = "pacon.bench/v0"
        a = self._write(tmp_path, "a.json", old)
        b = self._write(tmp_path, "b.json", _bench_doc("b"))
        rc = main(["compare", a, b])
        assert rc == 2
        assert "pacon.bench/v1" in capsys.readouterr().err

    def test_nonconformant_snapshot_exits_two(self, tmp_path, capsys):
        a = self._write(tmp_path, "a.json", _bench_doc("a"))
        b = self._write(tmp_path, "b.json", _bench_doc("b", speedup="fast"))
        rc = main(["compare", a, b])
        assert rc == 2
        err = capsys.readouterr().err
        assert "derived metric 'speedup' is not numeric ('fast')" in err


class TestHistoryCommand:
    def test_history_table(self, tmp_path, capsys, monkeypatch):
        for label, speedup in (("a", 2.0), ("b", 2.5), ("c", 3.0)):
            (tmp_path / f"BENCH_{label}.json").write_text(
                json.dumps(_bench_doc(label, speedup=speedup)))
        monkeypatch.chdir(tmp_path)
        rc = main(["history"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "a -> b -> c" in out
        assert "figX.derived.speedup" in out
        assert "+50.0%" in out

    def test_history_no_snapshots_exits_two(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["history"])
        assert rc == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_history_json_with_metric_glob(self, tmp_path, capsys):
        paths = []
        for label, speedup in (("a", 2.0), ("b", 4.0)):
            path = tmp_path / f"BENCH_{label}.json"
            path.write_text(json.dumps(_bench_doc(label, speedup=speedup)))
            paths.append(str(path))
        rc = main(["history", *paths, "--metric", "figX.rows[0].ops",
                   "--json"])
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["metric"] for row in rows] == ["figX.rows[0].ops"]


#: A small observed Pacon mdtest run (the views below all read it).
SMALL = ["mdtest", "--nodes", "1", "--clients-per-node", "2", "--items", "3"]


class TestObservabilityCommands:
    def test_stats_writes_metrics_json(self, tmp_path, capsys):
        out_file = tmp_path / "metrics.json"
        rc = main(["mdtest", "--nodes", "2", "--clients-per-node", "2",
                   "--items", "5", "--metrics-out", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == "pacon.metrics/v4"
        assert doc["histograms"]["client.op.mkdir.latency"]["count"] > 0
        assert doc["counters"]["commit.committed"] > 0
        assert any(name.startswith("queue.depth[")
                   for name in doc["series"])

    def test_trace_renders_spans(self, tmp_path, capsys):
        log = tmp_path / "log.txt"
        rc = main([*SMALL, "--limit", "500", "--log-out", str(log)])
        assert rc == 0
        out = log.read_text()
        assert "op.start" in out
        assert "op.end" in out
        assert "[ok]" in out

    def test_trace_kind_filter(self, tmp_path, capsys):
        log = tmp_path / "log.txt"
        rc = main(["mdtest", "--nodes", "1", "--clients-per-node", "1",
                   "--items", "2", "--kind", "op.end", "--limit", "500",
                   "--log-out", str(log)])
        assert rc == 0
        out = log.read_text()
        assert "op.end" in out
        assert "op.start" not in out

    def test_figure_without_hub_support_rejects_metrics_out(
            self, tmp_path, capsys):
        rc = main(["figure", "fig01", "--scale", "smoke",
                   "--metrics-out", str(tmp_path / "m.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "does not support --metrics-out" in err

    def test_unobservable_system_rejects_output_flags(self, tmp_path,
                                                       capsys):
        rc = main(["mdtest", "--system", "beegfs",
                   "--metrics-out", str(tmp_path / "m.json")])
        assert rc == 2
        assert "not observable" in capsys.readouterr().err

    def test_trace_chrome_export(self, tmp_path, capsys):
        out_file = tmp_path / "trace.json"
        rc = main(["mdtest", "--nodes", "1", "--clients-per-node", "1",
                   "--items", "2", "--trace-out", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["displayTimeUnit"] == "ms"
        assert any(ev["ph"] == "X" for ev in doc["traceEvents"])
        assert "chrome trace written" in capsys.readouterr().out

    def test_trace_window_flags(self, tmp_path, capsys):
        log = tmp_path / "log.txt"
        rc = main(["mdtest", "--nodes", "1", "--clients-per-node", "1",
                   "--items", "2", "--limit", "500",
                   "--since", "1.0", "--until", "2.0", "--log-out", str(log)])
        assert rc == 0
        # The workload finishes in simulated microseconds, so nothing
        # falls inside the [1s, 2s] window.
        assert "op.start" not in log.read_text()

    def test_profile_renders_tables(self, tmp_path, capsys):
        profile = tmp_path / "profile.txt"
        rc = main([*SMALL, "--top", "3", "--profile-out", str(profile)])
        assert rc == 0
        out = profile.read_text()
        assert "Latency attribution by op class" in out
        assert "Top 3 slowest operations" in out
        assert "Resource utilization and queueing" in out
        assert "residual" in out

    def test_one_run_writes_every_view_as_single_view_runs_do(
            self, tmp_path, capsys):
        views = ("--metrics-out", "--trace-out", "--log-out",
                 "--profile-out")
        together = tmp_path / "together"
        together.mkdir()
        argv = [*SMALL]
        for flag in views:
            argv += [flag, str(together / flag)]
        assert main(argv) == 0
        for flag in views:
            alone = tmp_path / flag
            assert main([*SMALL, flag, str(alone)]) == 0
            assert alone.read_bytes() == (together / flag).read_bytes(), flag

    def test_figure_trace_out(self, tmp_path, capsys):
        out_file = tmp_path / "fig07.trace.json"
        rc = main(["figure", "fig07", "--scale", "smoke",
                   "--trace-out", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert any(ev["ph"] == "X" for ev in doc["traceEvents"])


class TestSloCommand:
    def metrics_file(self, tmp_path):
        path = tmp_path / "metrics.json"
        rc = main(["mdtest", "--nodes", "2", "--clients-per-node", "2",
                   "--items", "5", "--metrics-out", str(path)])
        assert rc == 0
        return path

    def test_json_exit_code_matches_verdict(self, tmp_path, capsys):
        """``slo --json`` exit code mirrors the document's own verdict."""
        path = self.metrics_file(tmp_path)
        capsys.readouterr()
        rc = main(["slo", str(path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert rc == (0 if doc["verdict"] == "pass" else 1)
        assert doc["policy"] == "default"
        assert doc["objectives"]

    def test_text_and_json_agree_on_exit_code(self, tmp_path, capsys):
        path = self.metrics_file(tmp_path)
        rc_text = main(["slo", str(path)])
        capsys.readouterr()
        rc_json = main(["slo", str(path), "--json"])
        assert rc_text == rc_json

    def test_unknown_policy_exits_two(self, tmp_path, capsys):
        path = self.metrics_file(tmp_path)
        rc = main(["slo", str(path), "--policy", "nonsense"])
        assert rc == 2
        assert "unknown SLO policy" in capsys.readouterr().err


class TestIncidentsCommand:
    """The incident report is part of ``figure chaos``: each scenario row
    carries its attribution and incident count, and its note prints the
    invariant verdict, the SLO objectives and ``format_report``."""

    def test_single_scenario_attributes_and_writes_json(
            self, tmp_path, capsys):
        out_file = tmp_path / "chaos.json"
        rc = main(["figure", "chaos", "--scale", "smoke",
                   "--bench-out", str(out_file)])
        assert rc == 0
        rows = json.loads(out_file.read_text())["experiments"]["chaos"]["rows"]
        row = next(r for r in rows if r["scenario"] == "mds_crash")
        assert row["attributed"] == 1
        assert row["incidents"] >= 1
        assert all(r["attributed"] == 1 and r["incidents"] >= 1
                   for r in rows), rows
        tail = capsys.readouterr().out.splitlines()[-1]
        assert tail == f"benchmark snapshot written to {out_file}"

    def test_text_report_names_scenario_and_verdict(self, capsys):
        rc = main(["figure", "chaos", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAILED" not in out
        report = out.split("note: mds_crash:", 1)[1].split("note: ", 1)[0]
        assert report.startswith(" convergence OK")
        assert "INC-001" in report
        assert "slo post-recovery [ok]" in report
        assert "mds_crash[0]" in report
        assert "top suspect of: INC-001" in report
