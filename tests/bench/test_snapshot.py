"""Benchmark snapshot contract: build, validate, byte-identity, diffing.

The regression gate's whole value rests on two properties pinned here:
(1) every driver lands in the snapshot with its parameters, seed, rows,
and derived claims, and (2) two same-seed runs are byte-identical in the
simulated subset, which is what licenses exact comparison as the default
regression check.
"""

import copy
import json

import pytest

from repro.bench.baseline import (
    compare_snapshots,
    flatten_metrics,
    history_rows,
    render_comparison,
    render_history,
    sparkline,
)
from repro.bench.snapshot import (
    BENCH_SCHEMA,
    SnapshotError,
    collect_snapshot_paths,
    load_snapshot,
    simulated_view,
    snapshot_path,
    to_json,
    write_snapshot,
)
from repro.bench.systems import DEFAULT_SEED
from repro.obs.schema import validate_bench

EXPECTED_EXPERIMENTS = {
    "fig01", "fig02", "table1", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "latency", "sensitivity", "staleness",
    "ablA", "ablB", "ablC", "ablD", "ablE",
}


class TestSnapshotBuild:
    def test_record_per_driver(self, snapshot_pair):
        doc = snapshot_pair[0]
        assert set(doc["experiments"]) == EXPECTED_EXPERIMENTS

    def test_conforms_to_schema(self, snapshot_pair):
        assert validate_bench(snapshot_pair[0]) == []

    def test_every_record_is_seeded_and_parameterized(self, snapshot_pair):
        for name, record in snapshot_pair[0]["experiments"].items():
            assert record["seed"] == DEFAULT_SEED, name
            assert record["rows"], name
            assert record["derived"], name
            assert "wall_clock_s" in record["host"], name

    def test_same_seed_runs_byte_identical_in_simulated_view(
            self, snapshot_pair):
        one, two = snapshot_pair
        assert to_json(simulated_view(one)) == to_json(simulated_view(two))

    def test_simulated_view_strips_host_and_label(self, snapshot_pair):
        view = simulated_view(snapshot_pair[0])
        assert "host" not in view and "label" not in view
        assert all("host" not in rec for rec in view["experiments"].values())
        # ...without mutating the original document.
        assert "host" in snapshot_pair[0]

    def test_roundtrip(self, snapshot_pair, tmp_path):
        path = snapshot_path("one", str(tmp_path))
        assert write_snapshot(snapshot_pair[0], path) == path
        assert load_snapshot(path) == snapshot_pair[0]
        assert collect_snapshot_paths(str(tmp_path)) == [path]

    def test_write_refuses_nonconformant_doc(self, tmp_path):
        with pytest.raises(SnapshotError, match="experiments"):
            write_snapshot({"schema": BENCH_SCHEMA},
                           str(tmp_path / "bad.json"))

    def test_load_refuses_foreign_schema(self, snapshot_pair, tmp_path):
        doc = copy.deepcopy(snapshot_pair[0])
        doc["schema"] = "pacon.bench/v99"
        path = tmp_path / "BENCH_v99.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="pacon.bench/v1"):
            load_snapshot(str(path))

class TestFlatten:
    def test_only_the_simulated_payload_is_flattened(self, snapshot_pair):
        metrics = flatten_metrics(snapshot_pair[0])
        assert "fig07.derived.create_speedup_vs_beegfs" in metrics
        assert "host.wall_clock_s" not in metrics
        assert "fig07.host.wall_clock_s" not in metrics

    def test_row_context_names_the_row(self, snapshot_pair):
        metrics = flatten_metrics(snapshot_pair[0])
        row_metrics = [m for name, m in metrics.items()
                       if name.startswith("fig07.rows[")]
        assert row_metrics
        assert any("system=pacon" in m.context for m in row_metrics)


class TestCompare:
    def test_identical_docs_compare_clean(self, snapshot_pair):
        comp = compare_snapshots(snapshot_pair[0],
                                 copy.deepcopy(snapshot_pair[0]))
        assert comp.ok
        assert not comp.regressions
        assert "OK" in render_comparison(comp)

    def test_same_seed_runs_compare_clean_ignoring_host(
            self, snapshot_pair):
        one, two = snapshot_pair
        comp = compare_snapshots(one, two)
        assert comp.ok
        assert not any("host." in d.metric for d in comp.deltas)

    def test_perturbed_simulated_metric_is_named(self, snapshot_pair):
        doc = copy.deepcopy(snapshot_pair[1])
        doc["experiments"]["fig07"]["rows"][2]["create"] *= 0.9
        comp = compare_snapshots(snapshot_pair[0], doc)
        assert not comp.ok
        names = [d.metric for d in comp.regressions]
        assert names == ["fig07.rows[2].create"]
        text = render_comparison(comp)
        assert "fig07.rows[2].create" in text
        assert "-10.00%" in text
        assert "must match exactly" in text
        assert "system=pacon" in text

    def test_tolerance_override_absolves(self, snapshot_pair):
        doc = copy.deepcopy(snapshot_pair[1])
        doc["experiments"]["fig07"]["rows"][2]["create"] *= 0.9
        comp = compare_snapshots(
            snapshot_pair[0], doc,
            tolerances={"fig07.rows[2].create": 0.15})
        assert comp.ok

    def test_glob_tolerance(self, snapshot_pair):
        doc = copy.deepcopy(snapshot_pair[1])
        doc["experiments"]["fig11"]["derived"]["scaling_vs_beegfs"] *= 1.01
        comp = compare_snapshots(snapshot_pair[0], doc,
                                 tolerances={"fig11.derived.*": 0.05})
        assert comp.ok

    def test_removed_simulated_metric_regresses(self, snapshot_pair):
        doc = copy.deepcopy(snapshot_pair[1])
        del doc["experiments"]["fig07"]["derived"][
            "create_speedup_vs_beegfs"]
        comp = compare_snapshots(snapshot_pair[0], doc)
        assert not comp.ok
        assert comp.regressions[0].metric \
            == "fig07.derived.create_speedup_vs_beegfs"
        assert "disappeared" in comp.regressions[0].detail

    def test_added_metric_does_not_fail(self, snapshot_pair):
        doc = copy.deepcopy(snapshot_pair[1])
        doc["experiments"]["fig07"]["derived"]["brand_new"] = 1.0
        comp = compare_snapshots(snapshot_pair[0], doc)
        assert comp.ok
        assert comp.counts().get("added") == 1

    def test_mismatched_schema_refused(self, snapshot_pair):
        doc = copy.deepcopy(snapshot_pair[1])
        doc["schema"] = "pacon.bench/v2"
        with pytest.raises(SnapshotError, match="cannot compare"):
            compare_snapshots(snapshot_pair[0], doc)

    def test_seed_mismatch_warns(self, snapshot_pair):
        doc = copy.deepcopy(snapshot_pair[1])
        doc["seed"] = DEFAULT_SEED + 1
        comp = compare_snapshots(snapshot_pair[0], doc)
        assert any("seed differs" in w for w in comp.warnings)

    def test_sketch_quantiles_get_one_bucket_tolerance(self, snapshot_pair):
        # A sketch-derived percentile drifting within one log bucket
        # (growth 1.05) is quantization, not a regression.
        doc = copy.deepcopy(snapshot_pair[1])
        row = doc["experiments"]["staleness"]["rows"][0]
        row["stale_p99"] *= 1.04
        comp = compare_snapshots(snapshot_pair[0], doc)
        assert comp.ok
        # Beyond one bucket it regresses like any simulated metric.
        row["stale_p99"] *= 1.10
        comp = compare_snapshots(snapshot_pair[0], doc)
        assert not comp.ok
        assert comp.regressions[0].metric == "staleness.rows[0].stale_p99"

    def test_sketch_counts_stay_exact(self, snapshot_pair):
        doc = copy.deepcopy(snapshot_pair[1])
        doc["experiments"]["staleness"]["rows"][0]["reads_shared"] += 1
        comp = compare_snapshots(snapshot_pair[0], doc)
        assert not comp.ok

    def test_explicit_tolerance_overrides_sketch_default(
            self, snapshot_pair):
        doc = copy.deepcopy(snapshot_pair[1])
        doc["experiments"]["staleness"]["rows"][0]["stale_p99"] *= 1.04
        comp = compare_snapshots(
            snapshot_pair[0], doc,
            tolerances={"staleness.rows[0].stale_p99": 0.0})
        assert not comp.ok


class TestHistory:
    def test_default_rows_are_derived_claims(self, snapshot_pair):
        rows = history_rows(snapshot_pair)
        names = [row["metric"] for row in rows]
        assert "fig07.derived.create_speedup_vs_beegfs" in names
        assert "host.wall_clock_s" in names
        assert all(".rows[" not in n or n == "host.wall_clock_s"
                   for n in names)
        same_seed = [r for r in rows
                     if r["metric"].startswith("fig07.derived.")]
        assert all(r["delta"] == "=" for r in same_seed)

    def test_exact_metric_name_with_brackets(self, snapshot_pair):
        rows = history_rows(snapshot_pair,
                            metric_glob="fig07.rows[2].create")
        assert [row["metric"] for row in rows] \
            == ["fig07.rows[2].create"]

    def test_render_history_mentions_labels(self, snapshot_pair):
        text = render_history(snapshot_pair)
        assert "one -> two" in text
        assert "trend" in text

    def test_sparkline_shape(self):
        assert sparkline([1.0, None, 2.0]) == "▁·█"
        assert sparkline([3.0, 3.0]) == "▄▄"
        assert sparkline([]) == ""
