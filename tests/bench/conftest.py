"""Fixtures shared by the bench-harness tests: every experiment is run
once per session (plus the second sweep byte-identity needs), and the
tests that only read results share them."""

import os

import pytest

from repro.bench import runner
from repro.bench.registry import EXPERIMENTS
from repro.bench.snapshot import build_snapshot
from repro.bench.systems import DEFAULT_SEED

#: Where the committed ``baseline_*.json`` gates live.
BASELINES = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks")


@pytest.fixture(scope="session")
def smoke_results():
    """One smoke-scale result per registry row: the ``in_all`` rows
    through ``run_all``, the rest called directly."""
    results = {r.experiment: r
               for r in runner.run_all("smoke", verbose=False)}
    for name, experiment in EXPERIMENTS.items():
        if not experiment.in_all:
            results[name] = experiment("smoke")
    return results


@pytest.fixture(scope="session")
def snapshot_pair(smoke_results):
    """Two full smoke sweeps with the same seed, as snapshot docs.
    Shared and session-scoped: copy before mutating."""
    sweeps = ([r for name, r in smoke_results.items()
               if EXPERIMENTS[name].in_all],
              runner.run_all("smoke", verbose=False))
    return [build_snapshot(results, label=label, scale="smoke",
                           seed=DEFAULT_SEED, wall_clock_s=wall)
            for results, label, wall in zip(sweeps, ("one", "two"),
                                            (0.25, 0.5))]
