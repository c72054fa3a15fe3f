"""The four zero-drift gates, on every ``pytest`` run.

CI regenerates the tiny / chaos / elastic / kernel snapshots and compares
them against the committed ``benchmarks/baseline_*.json`` with
``pacon-bench compare``; these tests do the same through the same code
(``runner.run_all`` / the registry rows, ``write_snapshot``), so
simulated drift is caught locally, before CI.  The duplication is deliberate: CI keeps the uploaded
snapshots, tier-1 keeps the fast feedback.
"""

import os

import pytest

from benchmarks import bench_kernel_throughput
from repro.bench.snapshot import (build_snapshot, compare_snapshots,
                                  load_snapshot, render_comparison,
                                  write_snapshot)
from repro.bench.systems import DEFAULT_SEED
from tests.bench.conftest import BASELINES


def _assert_no_drift(baseline, fresh):
    comparison = compare_snapshots(
        load_snapshot(os.path.join(BASELINES, baseline)), fresh)
    assert comparison.ok, render_comparison(comparison)
    assert not comparison.warnings, comparison.warnings


def _emit(result, tmp_path, scale="smoke", seed=DEFAULT_SEED):
    return load_snapshot(write_snapshot(
        build_snapshot([result], scale=scale, seed=seed, label="fresh"),
        str(tmp_path / "fresh.json")))


def test_tiny_baseline(snapshot_pair):
    _assert_no_drift("baseline_tiny.json", snapshot_pair[0])


@pytest.mark.parametrize("name", ["chaos", "elastic"])
def test_single_experiment_baseline(name, smoke_results, tmp_path):
    _assert_no_drift(f"baseline_{name}.json",
                     _emit(smoke_results[name], tmp_path))


def test_kernel_baseline(tmp_path):
    _assert_no_drift("baseline_kernel.json",
                     _emit(bench_kernel_throughput.run("tiny", rounds=1),
                           tmp_path, scale="tiny", seed=0))
