"""Schema guards for the JSON documents this repo publishes.

Two contracts live here:

* ``pacon.metrics/v4`` (:func:`validate`) — the MetricsHub export.  CI
  runs an instrumented fig. 7 smoke pass and feeds the ``--metrics-out``
  JSON through it — renaming a metric, dropping a section, or changing
  the schema string without updating this contract fails the build
  instead of silently breaking downstream dashboards.  There is one
  version: the document the hub writes today.
* ``pacon.bench/v1`` (:func:`validate_bench`) — the benchmark snapshot
  (``BENCH_<label>.json``) written by ``pacon-bench all|figure``.  The CI
  perf gate and ``pacon-bench compare``/``history`` refuse documents
  that drift from it.

The required counter and histogram names are the metrics an instrumented
Pacon run is *guaranteed* to produce (both are created lazily, so
conditionally emitted series — discards, publish stalls — are not
required, only structurally checked when present).
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Tuple

from repro.obs.hub import SCHEMA

__all__ = ["SCHEMA", "BENCH_SCHEMA", "validate", "validate_bench",
           "validate_chaos", "validate_any", "main", "REQUIRED_FIELDS",
           "REQUIRED_CHAOS_COUNTERS", "REQUIRED_CHAOS_HISTOGRAMS",
           "REQUIRED_BENCH_TOP_LEVEL", "REQUIRED_BENCH_EXPERIMENT_FIELDS"]

#: Version string of the benchmark snapshot document.
BENCH_SCHEMA = "pacon.bench/v1"

#: Top-level sections of a ``pacon.bench/v1`` snapshot.
REQUIRED_BENCH_TOP_LEVEL = ("schema", "label", "scale", "seed",
                            "experiments", "host")

#: Fields every per-experiment record must carry.  ``rows``/``derived``
#: are the simulated (deterministic) payload; ``host`` holds harness
#: wall-clock facts and is excluded from byte-identity guarantees.
REQUIRED_BENCH_EXPERIMENT_FIELDS = ("title", "scale", "seed", "params",
                                    "rows", "derived", "notes", "host")

#: The ``pacon.metrics/v4`` contract: where in the document -> the keys
#: the object found there must carry.  A path step is a key, ``{}`` (every
#: value of an object), ``[]`` (every item of a list) or ``[field]``
#: (likewise, naming each item by that field in messages).  A path that
#: leads nowhere is skipped: the row for its parent reports the hole.
REQUIRED_FIELDS: Tuple[Tuple[Tuple[str, ...], Tuple[str, ...]], ...] = (
    ((), ("schema", "enabled", "counters", "histograms", "meters",
          "series", "regions", "clients", "attribution", "resources",
          "trace", "consistency", "slo", "timeline", "incidents")),
    (("counters",), ("client.ops", "commit.published", "commit.committed")),
    # commit.batch_size gets one observation per commit-queue drain.
    (("histograms",), ("commit.latency", "commit.batch_size")),
    (("regions", "{}"), ("commit",)),
    (("regions", "{}", "commit"),
     ("committed", "discarded", "resubmissions", "coalesced",
      "barriers_passed", "replays", "aborts")),
    # Latency decomposition and the resource profiler.
    (("attribution",), ("ops", "total_ops", "buckets")),
    (("attribution", "ops", "{}"),
     ("count", "mean_latency", "buckets", "residual")),
    (("resources",), ()),
    # The consistency observatory; ``slo`` is one evaluated PolicyResult.
    (("consistency",),
     ("reads", "orphan_reads", "staleness", "staleness_p99", "visibility",
      "pending_mutations", "shard_reads", "sketches")),
    (("consistency", "staleness"), ("age", "lag")),
    (("consistency", "sketches", "{}"), ("buckets",)),
    (("slo",), ("policy", "verdict", "objectives")),
    (("slo", "objectives", "[name]"),
     ("name", "kind", "metric", "measured", "target", "ok")),
    # The incident flight recorder: control-plane event log + blame.
    (("timeline",), ("count", "dropped", "events")),
    (("timeline", "events", "[seq]"),
     ("seq", "t", "source", "kind", "label", "detail", "duration", "ref")),
    (("incidents",), ("policy", "count", "incidents")),
    (("incidents", "incidents", "[id]"),
     ("id", "rule", "series", "start", "end", "duration", "peak", "bound",
      "verdict", "suspects", "saturated")),
    (("incidents", "incidents", "[id]", "suspects", "[]"),
     ("rank", "seq", "kind", "label", "t", "score", "evidence")),
)

#: Counters a hub-instrumented chaos run (``pacon-bench chaos``) must
#: have produced: every fault emits inject/recover, and the
#: delivery-time network semantics drop at least the crashed/partitioned
#: round trips.  ``net.dropped`` is required structurally but may be 0
#: for planned churn.
REQUIRED_CHAOS_COUNTERS = ("chaos.injected", "chaos.recovered")

#: Histograms a chaos run must have produced (one downtime observation
#: per recovered fault).
REQUIRED_CHAOS_HISTOGRAMS = ("chaos.downtime",)


def validate(doc: Dict[str, Any]) -> List[str]:
    """Return a list of schema-drift problems (empty means conformant)."""
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    problems: List[str] = []
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r},"
                        f" expected {SCHEMA!r}")
    for path, fields in REQUIRED_FIELDS:
        _check_fields(doc, path, fields, "", problems)
    if doc.get("regions") == {}:
        problems.append("no regions in export (hub never attached?)")
    slo = doc.get("slo")
    if isinstance(slo, dict) and \
            slo.get("verdict") not in ("pass", "fail", None):
        problems.append(f"slo verdict is {slo.get('verdict')!r},"
                        " expected 'pass' or 'fail'")
    return problems


def _check_fields(node: Any, path: Tuple[str, ...], fields: Tuple[str, ...],
                  where: str, problems: List[str]) -> None:
    """Apply one :data:`REQUIRED_FIELDS` row below ``node``.

    A wrong container type is reported only by the row that ends there,
    so rows that merely pass through it do not repeat the complaint.
    """
    if node is None:
        return
    if not path:
        if isinstance(node, dict):
            problems.extend(f"{where or 'document'} missing {field!r}"
                            for field in fields if field not in node)
        else:
            problems.append(f"{where} is not an object")
        return
    step, rest = path[0], path[1:]
    if step == "{}":
        if isinstance(node, dict):
            for key, value in node.items():
                _check_fields(value, rest, fields, f"{where}[{key!r}]",
                              problems)
        elif not rest:
            problems.append(f"{where} is not an object")
    elif step.startswith("["):
        name = step[1:-1]
        if isinstance(node, list):
            for i, item in enumerate(node):
                label = (f"{name}={item.get(name)!r}"
                         if name and isinstance(item, dict) else str(i))
                _check_fields(item, rest, fields, f"{where}[{label}]",
                              problems)
        elif not rest:
            problems.append(f"{where} is not a list")
    elif isinstance(node, dict):
        _check_fields(node.get(step), rest, fields,
                      f"{where}.{step}" if where else step, problems)


def validate_chaos(doc: Dict[str, Any]) -> List[str]:
    """Extended contract for fault-injection runs (``pacon-bench chaos``).

    Everything :func:`validate` requires, plus the ``chaos.*`` fault
    lifecycle metrics: each injected fault must have recovered (the
    engine drove the matching heal/restart), and every recovery recorded
    a downtime observation.
    """
    problems = validate(doc)
    counters = doc.get("counters", {})
    if isinstance(counters, dict):
        for name in REQUIRED_CHAOS_COUNTERS:
            if name not in counters:
                problems.append(f"missing chaos counter {name!r}")
        injected = counters.get("chaos.injected")
        recovered = counters.get("chaos.recovered")
        if _is_number(injected) and not injected > 0:
            problems.append("chaos.injected is 0 (no fault ever fired)")
        if _is_number(injected) and _is_number(recovered) \
                and injected != recovered:
            problems.append(f"chaos.injected ({injected}) !="
                            f" chaos.recovered ({recovered}):"
                            " some fault never recovered")
    histograms = doc.get("histograms", {})
    if isinstance(histograms, dict):
        for name in REQUIRED_CHAOS_HISTOGRAMS:
            if name not in histograms:
                problems.append(f"missing chaos histogram {name!r}")
    return problems


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_bench(doc: Dict[str, Any]) -> List[str]:
    """Return schema problems of a ``pacon.bench/v1`` snapshot document."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    schema = doc.get("schema")
    if schema != BENCH_SCHEMA:
        problems.append(f"schema is {schema!r}, expected {BENCH_SCHEMA!r}")
    for key in REQUIRED_BENCH_TOP_LEVEL:
        if key not in doc:
            problems.append(f"missing top-level field {key!r}")
    if "seed" in doc and not isinstance(doc.get("seed"), int):
        problems.append("'seed' is not an integer")
    host = doc.get("host")
    if host is not None and not isinstance(host, dict):
        problems.append("'host' is not an object")
    experiments = doc.get("experiments")
    if not isinstance(experiments, dict):
        if "experiments" in doc:
            problems.append("'experiments' is not an object")
        return problems
    if not experiments:
        problems.append("no experiments in snapshot (runner never ran?)")
    for name, record in experiments.items():
        if not isinstance(record, dict):
            problems.append(f"experiment {name!r} is not an object")
            continue
        for field in REQUIRED_BENCH_EXPERIMENT_FIELDS:
            if field not in record:
                problems.append(f"experiment {name!r} missing {field!r}")
        rows = record.get("rows")
        if rows is not None:
            if not isinstance(rows, list) or any(
                    not isinstance(row, dict) for row in rows):
                problems.append(f"experiment {name!r} rows are not a list"
                                " of objects")
            elif not rows:
                problems.append(f"experiment {name!r} has no rows")
        derived = record.get("derived")
        if derived is not None:
            if not isinstance(derived, dict):
                problems.append(f"experiment {name!r} 'derived' is not"
                                " an object")
            else:
                for key, value in derived.items():
                    if not _is_number(value):
                        problems.append(
                            f"experiment {name!r} derived metric {key!r}"
                            f" is not numeric ({value!r})")
        exp_host = record.get("host")
        if exp_host is not None and not isinstance(exp_host, dict):
            problems.append(f"experiment {name!r} 'host' is not an object")
        if "seed" in record and record.get("seed") is not None \
                and not isinstance(record.get("seed"), int):
            problems.append(f"experiment {name!r} 'seed' is not an integer")
    return problems


def validate_any(doc: Any) -> List[str]:
    """Dispatch on the document's schema family (metrics vs bench)."""
    if isinstance(doc, dict) and \
            str(doc.get("schema", "")).startswith("pacon.bench/"):
        return validate_bench(doc)
    return validate(doc)


def main(argv: List[str] = None) -> int:
    """``python -m repro.obs.schema [--chaos] FILE [...]`` — exit 1 on drift.

    Accepts both ``pacon.metrics/v4`` exports and ``pacon.bench/v1``
    snapshots, picking the contract from each file's ``schema`` field.
    ``--chaos`` additionally holds metrics exports to the fault-injection
    contract (:func:`validate_chaos`).
    """
    argv = sys.argv[1:] if argv is None else argv
    chaos = "--chaos" in argv
    argv = [a for a in argv if a != "--chaos"]
    if not argv:
        print("usage: python -m repro.obs.schema [--chaos]"
              " METRICS_OR_BENCH_JSON [...]", file=sys.stderr)
        return 2
    status = 0
    for path in argv:
        with open(path) as fh:
            doc = json.load(fh)
        if chaos and not (isinstance(doc, dict) and str(
                doc.get("schema", "")).startswith("pacon.bench/")):
            problems = validate_chaos(doc)
        else:
            problems = validate_any(doc)
        if problems:
            status = 1
            print(f"{path}: {len(problems)} schema problem(s)")
            for problem in problems:
                print(f"  - {problem}")
        else:
            schema = doc.get("schema") if isinstance(doc, dict) else SCHEMA
            print(f"{path}: conforms to {schema}")
    return status


if __name__ == "__main__":  # pragma: no cover - CLI
    sys.exit(main())
