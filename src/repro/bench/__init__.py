"""Benchmark harness: one driver per table/figure of the paper.

Every experiment in §IV (and the two motivation experiments in §II) has a
module here that rebuilds the workload, runs all systems under the same
simulated cluster model, and fills the rows/series the paper reports.
``repro.bench.registry.EXPERIMENTS`` is the table of all of them — paper
figures, extensions, ablations, the chaos and elasticity benches — and
``pacon-bench figure NAME`` / ``pacon-bench all`` are how they are run
and snapshotted.  Each driver also exposes its row directly, so
``fig07.run("smoke", seed=7)`` returns the same ``ExperimentResult``.
"""

from repro.bench.report import ExperimentResult, format_table, write_markdown
from repro.bench.systems import AppHandle, TestBed, make_testbed

__all__ = [
    "AppHandle",
    "ExperimentResult",
    "TestBed",
    "format_table",
    "make_testbed",
    "write_markdown",
]
