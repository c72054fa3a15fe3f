"""What an experiment is and what it produces.

:class:`Experiment` is one row of the experiment table
(``repro.bench.registry`` lists them all): a driver module decorates the
function that fills its rows with :func:`experiment`, and calling the
row builds the :class:`ExperimentResult` — header, parameters, seed,
harness wall clock — around that body.  The rest of the module renders
results as ASCII tables and markdown.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.sim.rng import DEFAULT_SEED

__all__ = ["Experiment", "ExperimentResult", "NotObservable", "experiment",
           "format_table", "write_markdown", "fmt_ops",
           "metrics_sidecar_path", "summarize"]


@dataclass
class ExperimentResult:
    """Rows produced by one experiment driver."""

    experiment: str                      # e.g. "fig07"
    title: str
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    scale: str = "ci"
    #: Optional MetricsHub export captured while the driver ran; written
    #: as a JSON sidecar next to the markdown report.
    metrics: Optional[Dict[str, Any]] = None
    #: RNG seed the driver's clusters were built with (snapshots must
    #: state their seed honestly).
    seed: Optional[int] = None
    #: Scenario parameters (the driver's SCALES entry for this run).
    params: Dict[str, Any] = field(default_factory=dict)
    #: Named headline claims (speedup factors, crossovers, committed-op
    #: counts) — the metrics `pacon-bench compare`/`history` track first.
    derived: Dict[str, Any] = field(default_factory=dict)
    #: Harness-side facts (wall-clock seconds, ...).  Everything under
    #: ``host`` is excluded from the snapshot's deterministic view.
    host: Dict[str, Any] = field(default_factory=dict)

    def add(self, **row: Any) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def derive(self, name: str, value: Any) -> None:
        """Record one named headline claim (a simulated metric)."""
        self.derived[name] = value

    def to_snapshot(self) -> Dict[str, Any]:
        """JSON-normalized record for ``BENCH_*.json`` snapshots.

        Round-trips through :mod:`json` so tuples in ``params`` become
        lists — the in-memory record equals the re-loaded one, which is
        what the byte-identity guarantee is stated over.
        """
        record = {
            "title": self.title,
            "scale": self.scale,
            "seed": self.seed,
            "params": self.params,
            "rows": self.rows,
            "derived": self.derived,
            "notes": self.notes,
            "host": self.host,
        }
        return json.loads(json.dumps(record))

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def where(self, **match: Any) -> List[Dict[str, Any]]:
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                out.append(row)
        return out

    def value(self, field_name: str, **match: Any) -> Any:
        hits = self.where(**match)
        if len(hits) != 1:
            raise KeyError(f"{len(hits)} rows match {match!r}")
        return hits[0][field_name]

    def render(self) -> str:
        header = f"== {self.experiment}: {self.title} [{self.scale}] =="
        body = format_table(self.rows)
        notes = "".join(f"\n  note: {n}" for n in self.notes)
        return f"{header}\n{body}{notes}"


class NotObservable(ValueError):
    """A hub was handed to an experiment whose body takes none."""


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment table; call it to run the experiment.

    ``body(out, params, seed)`` — plus ``hub`` when ``observable`` —
    fills rows, derived claims and notes on the result built here.
    """

    name: str
    title: str
    #: Scenario parameters per scale name.
    scales: Dict[str, Dict[str, Any]]
    body: Callable[..., None]
    #: Part of ``pacon-bench all``, i.e. gated by ``baseline_tiny.json``.
    in_all: bool = True
    #: The body can record into a caller's MetricsHub.
    observable: bool = False

    def __call__(self, scale: str = "ci", *, seed: int = DEFAULT_SEED,
                 hub: Optional[Any] = None) -> ExperimentResult:
        if hub is not None and not self.observable:
            raise NotObservable(f"{self.name} takes no metrics hub")
        params = self.scales[scale]
        out = ExperimentResult(experiment=self.name, title=self.title,
                               scale=scale, seed=seed, params=dict(params))
        # perf_counter, not time.time: harness timings must be monotonic
        # so they survive wall-clock adjustments (NTP steps).
        t0 = time.perf_counter()
        if self.observable:
            self.body(out, params, seed, hub)
        else:
            self.body(out, params, seed)
        out.host["wall_clock_s"] = round(time.perf_counter() - t0, 3)
        return out


def experiment(name: str, title: str, scales: Dict[str, Dict[str, Any]],
               **flags: bool) -> Callable[[Callable[..., None]], Experiment]:
    """Decorator: turn a body into the table row that runs it."""
    return lambda body: Experiment(name, title, scales, body, **flags)


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Exact mean/p50/p99/max of raw samples (all zero when empty)."""
    if not len(samples):
        return {"mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0}
    arr = np.asarray(samples)
    return {"mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p99": float(np.percentile(arr, 99)),
            "max": float(arr.max())}


def fmt_ops(value: float) -> str:
    """Human throughput formatting (ops/s)."""
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}K"
    return f"{value:.1f}"


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    return str(value)


def format_table(rows: Sequence[Dict[str, Any]]) -> str:
    """Render dict-rows as an aligned ASCII table."""
    if not rows:
        return "(no rows)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered = [[_fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered))
              for i, col in enumerate(columns)]
    def line(cells):
        return "  ".join(cell.rjust(w) for cell, w in zip(cells, widths))
    out = [line(columns), line(["-" * w for w in widths])]
    out.extend(line(r) for r in rendered)
    return "\n".join(out)


def metrics_sidecar_path(path: str) -> str:
    """Path of the metrics JSON written alongside a markdown report."""
    return path + ".metrics.json"


def write_markdown(results: Sequence[ExperimentResult], path: str) -> None:
    """Write experiment results as a markdown report.

    Results carrying a :attr:`ExperimentResult.metrics` export also get a
    stable-ordered JSON sidecar (``<path>.metrics.json``) keyed by
    experiment name.
    """
    lines: List[str] = ["# Benchmark report", ""]
    metrics: Dict[str, Any] = {}
    for result in results:
        lines.append(f"## {result.experiment}: {result.title}")
        lines.append("")
        if result.rows:
            columns: List[str] = []
            for row in result.rows:
                for key in row:
                    if key not in columns:
                        columns.append(key)
            lines.append("| " + " | ".join(columns) + " |")
            lines.append("|" + "---|" * len(columns))
            for row in result.rows:
                lines.append("| " + " | ".join(
                    _fmt(row.get(c, "")) for c in columns) + " |")
        for note in result.notes:
            lines.append(f"\n> {note}")
        if result.metrics is not None:
            metrics[result.experiment] = result.metrics
            lines.append(f"\n> metrics: see"
                         f" {metrics_sidecar_path(path)}"
                         f" [{result.experiment}]")
        lines.append("")
    if metrics:
        with open(metrics_sidecar_path(path), "w") as fh:
            json.dump(metrics, fh, sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
