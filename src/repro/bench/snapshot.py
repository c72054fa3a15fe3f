"""Benchmark snapshots (``BENCH_<label>.json``): write, read, compare, fold.

One snapshot captures everything a bench run claims: per-experiment
scenario parameters, the RNG seed, every result row (simulated ops/s per
system/curve-point), the named headline claims (``derived``), plus
harness-side wall-clock and peak RSS.  The simulated payload is
deterministic — two same-seed runs produce byte-identical
:func:`simulated_view` serializations — while everything under ``host``
keys varies run to run and is excluded from that guarantee.

This module is the one reader and writer of ``pacon.bench/v1``:
``pacon-bench all|figure --bench-out`` writes through
``write_snapshot(build_snapshot(...))``, ``pacon-bench compare`` diffs two
snapshots and ``pacon-bench history`` folds many.  Every document that
comes in or goes out — loaded, written or compared — is held to
:func:`repro.obs.schema.validate_bench`, the format contract and the only
code that checks the version string.

Simulated metrics come from a deterministic DES, so compare holds them
**exactly**.  The one exception: quantile metrics derived from the
streaming sketches (:data:`SKETCH_TOLERANCES`) carry a one-bucket relative
tolerance, because sketch percentiles are quantized to log-bucket
boundaries.  Host facts (wall-clock, peak RSS) stay in every snapshot but
are never flattened into metrics: ``benchmarks/perf`` is the instrument
for host-side claims.
"""

from __future__ import annotations

import fnmatch
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.report import format_table
from repro.obs.schema import BENCH_SCHEMA, is_number, validate_bench

__all__ = ["SnapshotError", "build_snapshot", "simulated_view", "to_json",
           "write_snapshot", "load_snapshot", "peak_rss_bytes",
           "collect_snapshot_paths", "BENCH_SCHEMA", "Delta", "Comparison",
           "flatten_metrics", "compare_snapshots", "render_comparison",
           "load_history", "history_rows", "render_history", "sparkline",
           "SKETCH_BUCKET_TOLERANCE", "SKETCH_TOLERANCES"]

#: Quantile metrics read off the streaming sketches are quantized to
#: log-bucket boundaries (growth factor 1.05): a sample landing one
#: bucket over — e.g. because an unrelated change shifted a latency by a
#: hair — snaps the reported percentile by up to one bucket width, even
#: though the distribution is effectively unchanged.  Compare therefore
#: grants the metrics these globs match a one-bucket relative tolerance;
#: sketch *counts* stay exact (the DES is deterministic).
SKETCH_BUCKET_TOLERANCE = 0.05
SKETCH_TOLERANCES: Tuple[str, ...] = (
    "*.stale_p*",
    "*.lag_p*",
    "*.vis_commit_p*",
    "*.vis_global_p*",
    "*.derived.consistency.staleness_p99",
    "*.derived.staleness_growth_vs_batch",
)


class SnapshotError(Exception):
    """A snapshot file is unreadable, non-conformant, or incomparable."""


def _conform(doc: Any, prefix: str) -> None:
    """Raise :class:`SnapshotError` unless ``doc`` passes
    :func:`validate_bench`; ``prefix`` says who is refusing it."""
    problems = validate_bench(doc)
    if problems:
        raise SnapshotError(
            f"{prefix}non-conformant snapshot: " + "; ".join(problems[:5])
            + ("" if len(problems) <= 5 else f" (+{len(problems) - 5} more)"))


def peak_rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process, or None if unknowable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, kibibytes everywhere else.
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


def _git_label() -> str:
    """Short git SHA of HEAD, or ``local`` outside a checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "local"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "local"


def build_snapshot(results: Sequence[Any], *, scale: str, seed: int,
                   label: Optional[str] = None,
                   wall_clock_s: Optional[float] = None) -> Dict[str, Any]:
    """Assemble a ``pacon.bench/v1`` document from experiment results.

    ``results`` are :class:`repro.bench.report.ExperimentResult` objects
    (anything with a ``to_snapshot()`` returning the per-experiment
    record works).  ``label`` defaults to the short git SHA.  The
    returned document is JSON-normalized, so it compares equal to its own
    load_snapshot(write_snapshot(...)) round trip.
    """
    experiments = {r.experiment: r.to_snapshot() for r in results}
    host: Dict[str, Any] = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": platform.python_version(),
        "platform": sys.platform,
    }
    rss = peak_rss_bytes()
    if rss is not None:
        host["peak_rss_bytes"] = rss
    if wall_clock_s is not None:
        host["wall_clock_s"] = round(wall_clock_s, 3)
    doc = {
        "schema": BENCH_SCHEMA,
        "label": label or _git_label(),
        "scale": scale,
        "seed": seed,
        "experiments": experiments,
        "host": host,
    }
    return json.loads(json.dumps(doc))


def simulated_view(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic subset of a snapshot.

    Strips the top-level ``host`` section and ``label`` plus every
    per-experiment ``host`` — what remains is a pure function of
    (code, scale, seed), and two same-seed runs serialize to identical
    bytes under ``json.dumps(..., sort_keys=True)``.
    """
    view = json.loads(json.dumps(doc))
    view.pop("label", None)
    view.pop("host", None)
    for record in view.get("experiments", {}).values():
        if isinstance(record, dict):
            record.pop("host", None)
    return view


def to_json(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_snapshot(doc: Dict[str, Any], path: Optional[str] = None) -> str:
    """Schema-validate and write a snapshot (by default to
    ``./BENCH_<label>.json``); returns the path."""
    _conform(doc, "refusing to write ")
    path = path or os.path.join(".", f"BENCH_{doc['label']}.json")
    with open(path, "w") as fh:
        fh.write(to_json(doc))
    return path


def load_snapshot(path: str) -> Dict[str, Any]:
    """Load and validate one snapshot; raise :class:`SnapshotError`."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"{path}: not valid JSON ({exc})") from exc
    _conform(doc, f"{path}: ")
    return doc


def collect_snapshot_paths(directory: str = ".") -> List[str]:
    """All ``BENCH_*.json`` files in a directory, sorted by name."""
    out = []
    for name in sorted(os.listdir(directory or ".")):
        if name.startswith("BENCH_") and name.endswith(".json"):
            out.append(os.path.join(directory, name))
    return out


# ------------------------------------------------------------------ compare

def flatten_metrics(doc: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Flatten a snapshot's simulated payload into ``name -> (value,
    context)``, where the context names a row by its string fields.

    Row order inside an experiment is deterministic (the DES replays the
    same schedule for the same seed), so ``rows[i]`` is a stable address.
    """
    out: Dict[str, Tuple[float, str]] = {}
    for exp_name in sorted(doc.get("experiments", {})):
        record = doc["experiments"][exp_name]
        for i, row in enumerate(record.get("rows") or []):
            context = " ".join(f"{k}={v}" for k, v in row.items()
                               if isinstance(v, str))
            for key, value in row.items():
                if is_number(value):
                    out[f"{exp_name}.rows[{i}].{key}"] = (float(value),
                                                          context)
        for key, value in (record.get("derived") or {}).items():
            if is_number(value):
                out[f"{exp_name}.derived.{key}"] = (float(value), "")
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


def _tolerance_for(name: str) -> float:
    """The one-bucket tolerance for a sketch quantile, else exact."""
    if any(fnmatch.fnmatchcase(name, glob) for glob in SKETCH_TOLERANCES):
        return SKETCH_BUCKET_TOLERANCE
    return 0.0


def _rel(baseline: float, candidate: float) -> float:
    if baseline == candidate:
        return 0.0
    return (candidate - baseline) / max(abs(baseline), 1e-12)


def compare_snapshots(baseline: Dict[str, Any],
                      candidate: Dict[str, Any]) -> Comparison:
    """Diff the simulated metrics of two snapshot documents.

    Raises :class:`SnapshotError` unless both documents conform to
    ``pacon.bench/v1``; seed or scale mismatches produce warnings (the
    exact-compare of simulated metrics will surface the differences
    anyway).
    """
    _conform(baseline, "cannot compare baseline: ")
    _conform(candidate, "cannot compare candidate: ")
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
        if name not in a_metrics:
            comp.deltas.append(Delta(
                metric=name, baseline=None, candidate=b_metrics[name][0],
                rel_change=None, threshold=0.0,
                status="added", detail="metric only in candidate"))
            continue
        a, context = a_metrics[name]
        if name not in b_metrics:
            comp.deltas.append(Delta(
                metric=name, baseline=a, candidate=None,
                rel_change=None, threshold=0.0, status="regression",
                detail="metric disappeared from candidate"))
            continue
        b = b_metrics[name][0]
        rel = _rel(a, b)
        tol = _tolerance_for(name)
        ok = abs(rel) <= tol
        detail = ""
        if not ok:
            allowance = ("exactly" if tol == 0.0
                         else f"within ±{tol:.1%}")
            detail = (f"{a:g} -> {b:g} ({rel:+.2%});"
                      f" simulated metrics must match {allowance}")
            if context:
                detail += f" [{context}]"
        comp.deltas.append(Delta(
            metric=name, baseline=a, candidate=b,
            rel_change=rel, threshold=tol,
            status="ok" if ok else "regression", detail=detail))
    return comp


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
            metrics["host.wall_clock_s"] = (float(wall), "")
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
        values = [m[name][0] if name in m else None for m in flattened]
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
