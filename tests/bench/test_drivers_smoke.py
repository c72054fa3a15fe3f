"""Smoke tests: every experiment driver runs and emits sane rows.

These do not re-assert the paper's quantitative shapes (that is what
``benchmarks/`` does); they pin the drivers' row schemas and basic sanity
so refactors cannot silently break the harness.
"""

import pytest

from repro.bench import (
    fig01,
    fig02,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    latency,
    sensitivity,
    staleness,
    table1,
)
from repro.bench.registry import EXPERIMENTS


class TestDriverSchemas:
    def test_fig01(self):
        r = fig01.run("smoke")
        assert {row["system"] for row in r.rows} == {"beegfs", "indexfs"}
        assert all(row["ops_per_sec"] > 0 for row in r.rows)
        assert all(row["multiple"] > 0 for row in r.rows)

    def test_fig02(self):
        r = fig02.run("smoke")
        depths = fig02.SCALES["smoke"]["depths"]
        assert len(r.rows) == 2 * len(depths)
        assert r.rows[0]["loss_vs_shallowest_pct"] == 0

    def test_table1(self):
        r = table1.run("smoke")
        assert len(r.rows) == len(table1.DESIGN_TABLE)
        assert all(row["observed"] == "match" for row in r.rows)

    def test_fig07(self):
        r = fig07.run("smoke")
        assert {row["system"] for row in r.rows} == \
            {"beegfs", "indexfs", "pacon"}
        for row in r.rows:
            assert row["mkdir"] > 0 and row["create"] > 0 and \
                row["stat"] > 0

    def test_fig08(self):
        r = fig08.run("smoke")
        apps = fig08.SCALES["smoke"]["app_counts"]
        assert len(r.rows) == 3 * len(apps)

    def test_fig09(self):
        r = fig09.run("smoke")
        assert {row["system"] for row in r.rows} == \
            {"beegfs", "indexfs", "pacon"}

    def test_fig10(self):
        r = fig10.run("smoke")
        for row in r.rows:
            assert 0 < row["pacon_vs_memcached_pct"] < 100

    def test_fig11(self):
        r = fig11.run("smoke")
        for system in ("beegfs", "indexfs", "pacon"):
            rows = r.where(system=system)
            assert rows[0]["normalized"] == 1.0

    def test_fig11_wide_is_the_same_faithful_sweep(self):
        wide = fig11.run_wide("smoke")
        narrow = fig11.run("smoke", seed=wide.seed)
        wide_ops = dict(zip(wide.column("clients"),
                            wide.column("ops_per_sec")))
        narrow_ops = {row["clients"]: row["ops_per_sec"]
                      for row in narrow.where(system="pacon")}
        shared = wide_ops.keys() & narrow_ops.keys()
        assert len(shared) >= 2
        assert all(wide_ops[c] == narrow_ops[c] for c in shared)
        assert max(wide_ops) > max(narrow_ops)
        norms = wide.column("normalized")
        assert all(b >= a for a, b in zip(norms, norms[1:]))

    def test_fig12(self):
        r = fig12.run("smoke")
        assert len(r.rows) == 2
        for row in r.rows:
            shares = (row["init_pct"] + row["write_pct"] + row["read_pct"]
                      + row["other_pct"])
            assert shares == pytest.approx(100, abs=1.5)

    def test_latency(self):
        r = latency.run("smoke")
        assert len(r.rows) == 3
        for row in r.rows:
            assert row["p50_us"] > 0
            assert row["p99_us"] >= row["p50_us"]

    def test_sensitivity(self):
        r = sensitivity.run("smoke")
        assert all(row["pacon_wins"] == "yes" for row in r.rows)
        knobs = {row["knob"] for row in r.rows}
        assert knobs == {"network", "mds"}

    def test_staleness(self):
        r = staleness.run("smoke")
        batches = staleness.SCALES["smoke"]["batch_sizes"]
        assert [row["batch"] for row in r.rows] == batches
        for row in r.rows:
            assert row["reads_shared"] + row["reads_private"] \
                + row["reads_mds"] > 0
            assert row["stale_p99"] >= row["stale_p50"] >= 0
            assert row["vis_global_p99"] >= row["vis_commit_p99"] > 0
            # Every sweep point quiesced: partial consistency converged.
            assert row["pending_end"] == 0
        assert r.derived["consistency.staleness_p99"] == \
            max(row["stale_p99"] for row in r.rows)

    def test_ablations(self):
        results = [experiment("smoke")
                   for name, experiment in EXPERIMENTS.items()
                   if name.startswith("abl")]
        assert [r.experiment for r in results] == \
            ["ablA", "ablB", "ablC", "ablD", "ablE"]
        assert all(r.rows for r in results)
