"""Run the whole experiment table and emit ``BENCH_*.json`` snapshots.

``pacon-bench all`` and ``pacon-bench figure`` are the command-line faces
of this module: :func:`run_all` runs every ``in_all`` row of
:data:`repro.bench.registry.EXPERIMENTS`, and :func:`write_snapshot_file`
is the one emitter of the versioned, schema-validated snapshot (see
``repro.bench.snapshot``) that ``pacon-bench compare``/``history`` and the
CI gates consume.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.bench import snapshot as snap
from repro.bench.registry import EXPERIMENTS
from repro.bench.report import ExperimentResult
from repro.bench.systems import DEFAULT_SEED

__all__ = ["run_all", "write_snapshot_file"]


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


def write_snapshot_file(results: List[ExperimentResult], *, scale: str,
                        seed: int, path: Optional[str] = None,
                        label: Optional[str] = None,
                        wall_clock_s: Optional[float] = None) -> str:
    """Build, validate, and write one ``BENCH_*.json`` snapshot.

    With no explicit ``path``, writes ``BENCH_<label>.json`` in the
    current directory, defaulting the label to the short git SHA.
    """
    label = label or snap.default_label()
    path = path or snap.snapshot_path(label)
    doc = snap.build_snapshot(results, label=label, scale=scale, seed=seed,
                              wall_clock_s=wall_clock_s)
    return snap.write_snapshot(doc, path)
