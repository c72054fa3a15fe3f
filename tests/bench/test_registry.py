"""The experiment table is the one way in: its keys are what the CLI
offers, every row builds its own result header, and no row can be called
with the argument order that used to differ between drivers."""

import argparse
import json
import os

import pytest

from repro.bench.registry import EXPERIMENTS
from repro.bench.report import Experiment, NotObservable
from repro.bench.snapshot import compare_snapshots, load_snapshot
from repro.bench.systems import DEFAULT_SEED
from repro.cli import build_parser, main
from repro.obs.hub import MetricsHub
from tests.bench.conftest import BASELINES


def test_cli_figure_choices_are_the_registry_keys():
    verbs = next(action for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    name = next(action for action in verbs.choices["figure"]._actions
                if action.dest == "name")
    assert list(name.choices) == list(EXPERIMENTS)


def test_every_row_builds_its_own_header(smoke_results):
    assert list(smoke_results) == list(EXPERIMENTS)
    for name, experiment in EXPERIMENTS.items():
        result = smoke_results[name]
        assert result.experiment == experiment.name == name
        assert result.title == experiment.title
        assert result.scale == "smoke"
        assert result.seed == DEFAULT_SEED
        assert result.params == experiment.scales["smoke"]
        assert result.host["wall_clock_s"] >= 0
        assert result.rows, name


def test_run_all_is_exactly_the_tiny_baseline(snapshot_pair):
    with open(os.path.join(BASELINES, "baseline_tiny.json")) as fh:
        gated = json.load(fh)["experiments"]
    assert set(snapshot_pair[1]["experiments"]) == set(gated)


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_seed_and_hub_are_keyword_only(name):
    """``fig07.run(scale, hub, seed)`` and ``elastic.run(scale, seed,
    hub)`` once disagreed on the order; now neither order exists."""
    with pytest.raises(TypeError):
        EXPERIMENTS[name]("smoke", 7)


def test_hub_refused_by_rows_that_cannot_observe():
    assert not EXPERIMENTS["fig01"].observable
    with pytest.raises(NotObservable, match="fig01"):
        EXPERIMENTS["fig01"]("smoke", hub=MetricsHub())


def test_figure_bench_out_matches_the_chaos_baseline(tmp_path, capsys):
    out = tmp_path / "chaos_fresh.json"
    assert main(["figure", "chaos", "--scale", "smoke",
                 "--bench-out", str(out)]) == 0
    assert f"benchmark snapshot written to {out}" in capsys.readouterr().out
    comparison = compare_snapshots(
        load_snapshot(os.path.join(BASELINES, "baseline_chaos.json")),
        load_snapshot(str(out)))
    assert comparison.ok


def _failing_row(name):
    """A registry row that observes nothing and fails its own check."""
    def body(out, params, seed, hub):
        out.add(scenario="x", ok=0)
        out.fail("forced")
    return Experiment(name, "forced failure", {"smoke": {}}, body,
                      in_all=False, observable=True)


class TestFigureVerdicts:
    @pytest.mark.parametrize("name", ["chaos", "elastic"])
    def test_failed_check_exits_one_after_writing_artifacts(
            self, name, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(EXPERIMENTS, name, _failing_row(name))
        metrics, bench = tmp_path / "m.json", tmp_path / "b.json"
        rc = main(["figure", name, "--scale", "smoke",
                   "--metrics-out", str(metrics), "--bench-out", str(bench)])
        assert rc == 1
        assert "FAILED: forced" in capsys.readouterr().out
        assert json.loads(metrics.read_text())["schema"] == \
            "pacon.metrics/v4"
        snapshot = json.loads(bench.read_text())
        assert snapshot["experiments"][name]["notes"] == ["FAILED: forced"]

    def test_elastic_rows_do_not_depend_on_metrics_out(
            self, smoke_results, tmp_path, capsys):
        """The observed run is the run the row reports: the hub samples
        at the row's own cadence."""
        bench = tmp_path / "b.json"
        assert main(["figure", "elastic", "--scale", "smoke",
                     "--metrics-out", str(tmp_path / "m.json"),
                     "--bench-out", str(bench)]) == 0
        observed = json.loads(bench.read_text())["experiments"]["elastic"]
        plain = smoke_results["elastic"].to_snapshot()
        assert observed["rows"] == plain["rows"]
        assert observed["derived"] == plain["derived"]
