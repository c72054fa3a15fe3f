"""Run-to-run regression detection over bench snapshots.

``pacon-bench compare A.json B.json`` diffs two ``pacon.bench/v1``
snapshots.  Simulated metrics (rows and derived claims) come from a
deterministic DES, so they compare **exactly** by default; per-metric
relative tolerances can be granted with ``--tolerance METRIC=REL``
(``METRIC`` may be an ``fnmatch`` glob).  The one built-in exception:
quantile metrics derived from the streaming sketches carry a one-bucket
relative tolerance (:data:`SKETCH_TOLERANCES`) because sketch
percentiles are quantized to log-bucket boundaries.  Host facts
(wall-clock, peak RSS) stay in every snapshot but are never flattened
into metrics: ``benchmarks/perf`` is the instrument for host-side claims.

``pacon-bench history`` folds many snapshots into per-metric
trajectories (first/last/delta plus a sparkline) so the repo's perf
story over a sequence of commits is inspectable in one command.
"""

from __future__ import annotations

import fnmatch
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.report import format_table
from repro.bench.snapshot import SnapshotError, load_snapshot
from repro.obs.schema import is_number

__all__ = ["Metric", "Delta", "Comparison", "flatten_metrics",
           "compare_snapshots", "compare_files", "render_comparison",
           "load_history", "history_rows", "render_history", "sparkline",
           "SKETCH_BUCKET_TOLERANCE", "SKETCH_TOLERANCES"]

#: Quantile metrics read off the streaming sketches are quantized to
#: log-bucket boundaries (growth factor 1.05): a sample landing one
#: bucket over — e.g. because an unrelated change shifted a latency by a
#: hair — snaps the reported percentile by up to one bucket width, even
#: though the distribution is effectively unchanged.  Compare therefore
#: grants sketch-derived percentiles a built-in one-bucket relative
#: tolerance; sketch *counts* stay exact (the DES is deterministic).
#: Explicit ``--tolerance`` grants with a longer (more specific) pattern
#: override these defaults.
SKETCH_BUCKET_TOLERANCE = 0.05
SKETCH_TOLERANCES: Dict[str, float] = {
    "*.stale_p*": SKETCH_BUCKET_TOLERANCE,
    "*.lag_p*": SKETCH_BUCKET_TOLERANCE,
    "*.vis_commit_p*": SKETCH_BUCKET_TOLERANCE,
    "*.vis_global_p*": SKETCH_BUCKET_TOLERANCE,
    "*.derived.consistency.staleness_p99": SKETCH_BUCKET_TOLERANCE,
    "*.derived.staleness_growth_vs_batch": SKETCH_BUCKET_TOLERANCE,
}


@dataclass
class Metric:
    """One comparable (simulated) number extracted from a snapshot."""

    name: str                 # e.g. "fig07.rows[4].create"
    value: float
    context: str = ""         # human label: the row's string fields


def flatten_metrics(doc: Dict[str, Any]) -> Dict[str, Metric]:
    """Flatten a snapshot's simulated payload into named metrics.

    Row order inside an experiment is deterministic (the DES replays the
    same schedule for the same seed), so ``rows[i]`` is a stable address.
    """
    out: Dict[str, Metric] = {}
    for exp_name in sorted(doc.get("experiments", {})):
        record = doc["experiments"][exp_name]
        for i, row in enumerate(record.get("rows") or []):
            context = " ".join(f"{k}={v}" for k, v in row.items()
                               if isinstance(v, str))
            for key, value in row.items():
                if is_number(value):
                    name = f"{exp_name}.rows[{i}].{key}"
                    out[name] = Metric(name, float(value), context)
        for key, value in (record.get("derived") or {}).items():
            if is_number(value):
                name = f"{exp_name}.derived.{key}"
                out[name] = Metric(name, float(value))
    return out


@dataclass
class Delta:
    """One metric's fate across a comparison."""

    metric: str
    baseline: Optional[float]
    candidate: Optional[float]
    rel_change: Optional[float]          # signed (candidate-baseline)/|base|
    threshold: float
    status: str                          # ok | regression | added
    detail: str = ""


@dataclass
class Comparison:
    """Everything ``pacon-bench compare`` reports."""

    baseline_label: str
    candidate_label: str
    deltas: List[Delta] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Delta]:
        return [d for d in self.deltas if d.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for delta in self.deltas:
            out[delta.status] = out.get(delta.status, 0) + 1
        return out

    def to_doc(self) -> Dict[str, Any]:
        """Machine output for ``--json``."""
        return {
            "baseline": self.baseline_label,
            "candidate": self.candidate_label,
            "ok": self.ok,
            "counts": self.counts(),
            "warnings": self.warnings,
            "regressions": [vars(d) for d in self.regressions],
            "deltas": [vars(d) for d in self.deltas
                       if d.status != "ok"],
        }


def _tolerance_for(name: str, tolerances: Dict[str, float]) -> float:
    """Most specific tolerance granted for a metric (exact, then glob)."""
    if name in tolerances:
        return tolerances[name]
    best = 0.0
    best_len = -1
    for pattern, tol in tolerances.items():
        if fnmatch.fnmatchcase(name, pattern) and len(pattern) > best_len:
            best, best_len = tol, len(pattern)
    return best if best_len >= 0 else 0.0


def _rel(baseline: float, candidate: float) -> float:
    if baseline == candidate:
        return 0.0
    return (candidate - baseline) / max(abs(baseline), 1e-12)


def compare_snapshots(baseline: Dict[str, Any], candidate: Dict[str, Any],
                      tolerances: Optional[Dict[str, float]] = None,
                      ) -> Comparison:
    """Diff the simulated metrics of two snapshot documents.

    Raises :class:`SnapshotError` on mismatched schema versions; seed or
    scale mismatches produce warnings (the exact-compare of simulated
    metrics will surface the differences anyway).
    """
    a_schema = baseline.get("schema")
    b_schema = candidate.get("schema")
    if a_schema != b_schema:
        raise SnapshotError(
            f"cannot compare schema {a_schema!r} against {b_schema!r} —"
            " regenerate both snapshots with the same pacon-bench version")
    tolerances = {**SKETCH_TOLERANCES, **(tolerances or {})}
    comp = Comparison(baseline_label=str(baseline.get("label")),
                      candidate_label=str(candidate.get("label")))
    for key in ("seed", "scale"):
        if baseline.get(key) != candidate.get(key):
            comp.warnings.append(
                f"{key} differs: baseline={baseline.get(key)!r}"
                f" candidate={candidate.get(key)!r} — simulated metrics"
                " are only expected to match for identical runs")
    a_metrics = flatten_metrics(baseline)
    b_metrics = flatten_metrics(candidate)
    for name in sorted(set(a_metrics) | set(b_metrics)):
        a = a_metrics.get(name)
        b = b_metrics.get(name)
        if a is None:
            comp.deltas.append(Delta(
                metric=name, baseline=None, candidate=b.value,
                rel_change=None, threshold=0.0,
                status="added", detail="metric only in candidate"))
            continue
        if b is None:
            comp.deltas.append(Delta(
                metric=name, baseline=a.value, candidate=None,
                rel_change=None, threshold=0.0, status="regression",
                detail="metric disappeared from candidate"))
            continue
        rel = _rel(a.value, b.value)
        tol = _tolerance_for(name, tolerances)
        ok = abs(rel) <= tol
        detail = ""
        if not ok:
            allowance = ("exactly" if tol == 0.0
                         else f"within ±{tol:.1%}")
            detail = (f"{a.value:g} -> {b.value:g} ({rel:+.2%});"
                      f" simulated metrics must match {allowance}")
            if a.context:
                detail += f" [{a.context}]"
        comp.deltas.append(Delta(
            metric=name, baseline=a.value, candidate=b.value,
            rel_change=rel, threshold=tol,
            status="ok" if ok else "regression", detail=detail))
    return comp


def compare_files(baseline_path: str, candidate_path: str,
                  **kwargs: Any) -> Comparison:
    """Load, validate, and diff two snapshot files."""
    return compare_snapshots(load_snapshot(baseline_path),
                             load_snapshot(candidate_path), **kwargs)


def render_comparison(comp: Comparison) -> str:
    """Human output: summary line, warnings, and a table of anomalies."""
    counts = comp.counts()
    total = len(comp.deltas)
    lines = [f"compare: baseline={comp.baseline_label}"
             f" candidate={comp.candidate_label}"]
    lines.extend(f"warning: {w}" for w in comp.warnings)
    summary = (f"{total} metrics compared:"
               f" {counts.get('ok', 0)} ok,"
               f" {counts.get('regression', 0)} regression(s),"
               f" {counts.get('added', 0)} added")
    lines.append(summary)
    anomalies = [d for d in comp.deltas if d.status != "ok"]
    if anomalies:
        rows = []
        for delta in anomalies:
            rows.append({
                "status": delta.status,
                "metric": delta.metric,
                "baseline": "-" if delta.baseline is None
                            else f"{delta.baseline:g}",
                "candidate": "-" if delta.candidate is None
                             else f"{delta.candidate:g}",
                "change": "-" if delta.rel_change is None
                          else f"{delta.rel_change:+.2%}",
                "threshold": f"{delta.threshold:.2%}",
            })
        lines.append(format_table(rows))
        for delta in comp.regressions:
            if delta.detail:
                lines.append(f"REGRESSION {delta.metric}: {delta.detail}")
    lines.append("verdict: " + ("OK — no regressions" if comp.ok else
                                f"{len(comp.regressions)} regression(s)"))
    return "\n".join(lines)


# ------------------------------------------------------------------ history

SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[Optional[float]]) -> str:
    """Unicode sparkline; ``·`` marks snapshots missing the metric."""
    present = [v for v in values if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    span = hi - lo
    out = []
    for value in values:
        if value is None:
            out.append("·")
        elif span == 0:
            out.append(SPARK_LEVELS[3])
        else:
            idx = int((value - lo) / span * (len(SPARK_LEVELS) - 1))
            out.append(SPARK_LEVELS[idx])
    return "".join(out)


def _sort_key(doc: Dict[str, Any], path: str) -> Tuple[str, float, str]:
    generated = str((doc.get("host") or {}).get("generated_at") or "")
    try:
        mtime = os.path.getmtime(path)
    except OSError:
        mtime = 0.0
    return (generated, mtime, str(doc.get("label")))


def load_history(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Load snapshots and order them oldest-first (generation time,
    falling back to file mtime)."""
    docs = [(load_snapshot(path), path) for path in paths]
    docs.sort(key=lambda pair: _sort_key(*pair))
    return [doc for doc, _ in docs]


def history_rows(docs: Sequence[Dict[str, Any]],
                 metric_glob: Optional[str] = None) -> List[Dict[str, Any]]:
    """Per-metric trajectory rows across an ordered snapshot sequence.

    Default selection is the headline claims (``*.derived.*``) plus the
    harness wall clock; this includes the consistency lens headline
    ``staleness.derived.consistency.staleness_p99``, so staleness drift
    across commits sparklines without any extra flag.  Pass an
    ``fnmatch`` glob to widen (e.g. ``'fig07.*'`` or ``'*'``).
    """
    flattened = [flatten_metrics(doc) for doc in docs]
    for metrics, doc in zip(flattened, docs):
        # The one host fact a trajectory shows; compare never sees it.
        wall = (doc.get("host") or {}).get("wall_clock_s")
        if is_number(wall):
            metrics["host.wall_clock_s"] = Metric("host.wall_clock_s",
                                                  float(wall))
    names: List[str] = []
    seen = set()
    for metrics in flattened:
        for name in metrics:
            if name in seen:
                continue
            if metric_glob is not None:
                # Exact equality first: row metrics contain "[i]", which
                # fnmatch would misread as a character class.
                if name != metric_glob and \
                        not fnmatch.fnmatchcase(name, metric_glob):
                    continue
            elif ".derived." not in name and name != "host.wall_clock_s":
                continue
            seen.add(name)
            names.append(name)
    rows = []
    for name in sorted(names):
        values = [m[name].value if name in m else None for m in flattened]
        present = [v for v in values if v is not None]
        first, last = present[0], present[-1]
        rows.append({
            "metric": name,
            "runs": len(present),
            "first": first,
            "last": last,
            "delta": f"{_rel(first, last):+.1%}" if first != last else "=",
            "trend": sparkline(values),
        })
    return rows


def render_history(docs: Sequence[Dict[str, Any]],
                   metric_glob: Optional[str] = None) -> str:
    labels = " -> ".join(str(doc.get("label")) for doc in docs)
    rows = history_rows(docs, metric_glob)
    if not rows:
        return (f"{len(docs)} snapshot(s): {labels}\n"
                "(no metrics matched)")
    return (f"{len(docs)} snapshot(s): {labels}\n"
            + format_table(rows))
