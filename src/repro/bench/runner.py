"""Run the whole experiment table.

``pacon-bench all`` is the command-line face of :func:`run_all`, which
runs every ``in_all`` row of :data:`repro.bench.registry.EXPERIMENTS`.
Its results become a ``BENCH_*.json`` snapshot through
``write_snapshot(build_snapshot(results, ...))`` in
``repro.bench.snapshot``, the one module that writes, reads, compares and
folds that format.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.bench.registry import EXPERIMENTS
from repro.bench.report import ExperimentResult
from repro.bench.systems import DEFAULT_SEED

__all__ = ["run_all"]


def run_all(scale: str = "ci", verbose: bool = True,
            seed: int = DEFAULT_SEED,
            hub: Optional[Any] = None) -> List[ExperimentResult]:
    """Run every ``in_all`` experiment; ``hub`` (a MetricsHub), if given,
    observes the observable ones."""
    results: List[ExperimentResult] = []
    for experiment in EXPERIMENTS.values():
        if not experiment.in_all:
            continue
        result = experiment(scale, seed=seed,
                            hub=hub if experiment.observable else None)
        results.append(result)
        if verbose:
            print(result.render())
            print(f"  [{result.host['wall_clock_s']:.1f}s]\n")
    return results
