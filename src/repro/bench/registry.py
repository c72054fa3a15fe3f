"""The experiment table: every experiment the harness can run, by name.

Each driver module wraps the function that fills its rows in
:func:`repro.bench.report.experiment`; this module lists the resulting
:class:`~repro.bench.report.Experiment` rows — ``name -> (title, scales,
body, in_all, observable)`` — in the order ``pacon-bench all`` runs and
reports them.  ``pacon-bench figure NAME`` runs one row, ``pacon-bench
all`` (``runner.run_all``) every ``in_all`` row, which is exactly the set
``benchmarks/baseline_tiny.json`` gates.
"""

from __future__ import annotations

from typing import Dict

from repro.bench import (ablations, chaos, elastic, fig01, fig02, fig07,
                         fig08, fig09, fig10, fig11, fig12, latency,
                         sensitivity, staleness, table1)
from repro.bench.report import Experiment

__all__ = ["EXPERIMENTS"]

EXPERIMENTS: Dict[str, Experiment] = {row.name: row for row in (
    fig01.run, fig02.run, table1.run, fig07.run, fig08.run, fig09.run,
    fig10.run, fig11.run, fig12.run,
    latency.run, sensitivity.run, staleness.run,
    ablations.run_commit_ablation, ablations.run_permission_ablation,
    ablations.run_related_ablation, ablations.run_mds_scaling_ablation,
    ablations.run_bulk_insertion_ablation,
    fig11.run_wide, chaos.run, elastic.run,
)}
