"""Machine-readable benchmark snapshots (``BENCH_<label>.json``).

One snapshot captures everything a bench run claims: per-experiment
scenario parameters, the RNG seed, every result row (simulated ops/s per
system/curve-point), the named headline claims (``derived``), plus
harness-side wall-clock and peak RSS.  The simulated payload is
deterministic — two same-seed runs produce byte-identical
:func:`simulated_view` serializations — while everything under ``host``
keys varies run to run and is excluded from that guarantee.

``pacon-bench all|figure --bench-out`` writes snapshots (through
``runner.write_snapshot_file``), ``repro.bench.baseline`` diffs and folds
them (``pacon-bench compare`` / ``pacon-bench history``), and
:func:`repro.obs.schema.validate_bench` is the format contract.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.schema import BENCH_SCHEMA, validate_bench

__all__ = ["SnapshotError", "build_snapshot", "simulated_view", "to_json",
           "write_snapshot", "load_snapshot", "default_label",
           "snapshot_path", "peak_rss_bytes", "collect_snapshot_paths",
           "BENCH_SCHEMA"]


class SnapshotError(Exception):
    """A snapshot file is unreadable, non-conformant, or incomparable."""


def peak_rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process, or None if unknowable."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, kibibytes everywhere else.
    return int(rss) if sys.platform == "darwin" else int(rss) * 1024


def default_label() -> str:
    """Short git SHA of HEAD, or ``local`` outside a checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "local"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "local"


def snapshot_path(label: str, directory: str = ".") -> str:
    """Canonical snapshot path for a label (``BENCH_<label>.json``)."""
    return os.path.join(directory, f"BENCH_{label}.json")


def build_snapshot(results: Sequence[Any], *, label: str, scale: str,
                   seed: int,
                   wall_clock_s: Optional[float] = None) -> Dict[str, Any]:
    """Assemble a ``pacon.bench/v1`` document from experiment results.

    ``results`` are :class:`repro.bench.report.ExperimentResult` objects
    (anything with a ``to_snapshot()`` returning the per-experiment
    record works).  The returned document is JSON-normalized, so it
    compares equal to its own load_snapshot(write_snapshot(...)) round
    trip.
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
        "label": label,
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


def write_snapshot(doc: Dict[str, Any], path: str) -> str:
    """Schema-validate and write a snapshot; returns the path."""
    problems = validate_bench(doc)
    if problems:
        raise SnapshotError(
            "refusing to write non-conformant snapshot: "
            + "; ".join(problems[:5])
            + ("" if len(problems) <= 5 else f" (+{len(problems) - 5} more)"))
    with open(path, "w") as fh:
        fh.write(to_json(doc))
    return path


def load_snapshot(path: str) -> Dict[str, Any]:
    """Load and validate one snapshot; raise :class:`SnapshotError`.

    Mismatched schema versions are refused with a clear error rather
    than producing a nonsense comparison downstream.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SnapshotError(f"{path}: cannot read ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SnapshotError(f"{path}: document is"
                            f" {type(doc).__name__}, expected object")
    schema = doc.get("schema")
    if schema != BENCH_SCHEMA:
        raise SnapshotError(
            f"{path}: schema is {schema!r} but this pacon-bench speaks"
            f" {BENCH_SCHEMA!r} — regenerate the snapshot with this"
            " tree's runner (or compare with a matching version)")
    problems = validate_bench(doc)
    if problems:
        raise SnapshotError(
            f"{path}: non-conformant snapshot: " + "; ".join(problems[:5]))
    return doc


def collect_snapshot_paths(directory: str = ".") -> List[str]:
    """All ``BENCH_*.json`` files in a directory, sorted by name."""
    out = []
    for name in sorted(os.listdir(directory or ".")):
        if name.startswith("BENCH_") and name.endswith(".json"):
            out.append(os.path.join(directory, name))
    return out
