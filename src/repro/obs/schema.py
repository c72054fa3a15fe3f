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

from repro.obs.hub import COMMIT_TALLIES, SCHEMA

__all__ = ["SCHEMA", "BENCH_SCHEMA", "validate", "validate_bench",
           "validate_chaos", "validate_any", "main", "is_number",
           "REQUIRED_FIELDS", "REQUIRED_CHAOS_FIELDS",
           "REQUIRED_BENCH_FIELDS"]

#: Version string of the benchmark snapshot document.
BENCH_SCHEMA = "pacon.bench/v1"

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
    (("regions", "{}", "commit"), COMMIT_TALLIES),
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

#: What a hub-instrumented chaos run (``figure chaos --metrics-out``) must
#: have produced on top of :data:`REQUIRED_FIELDS`: every fault emits
#: inject/recover, and each recovery one downtime observation.
#: ``net.dropped`` may legitimately be absent for planned churn.
REQUIRED_CHAOS_FIELDS = (
    (("counters",), ("chaos.injected", "chaos.recovered")),
    (("histograms",), ("chaos.downtime",)),
)

#: The ``pacon.bench/v1`` contract, same row format.  ``rows``/``derived``
#: are the simulated (deterministic) payload; ``host`` holds harness
#: wall-clock facts and is excluded from byte-identity guarantees.
REQUIRED_BENCH_FIELDS = (
    ((), ("schema", "label", "scale", "seed", "experiments", "host")),
    (("host",), ()),
    (("experiments", "{}"), ("title", "scale", "seed", "params", "rows",
                             "derived", "notes", "host")),
    (("experiments", "{}", "derived"), ()),
    (("experiments", "{}", "host"), ()),
)


def _check_table(doc: Any, schema: str, table) -> List[str]:
    """What a table can say about ``doc``: it is an object, it names
    ``schema``, and every row's keys are where the row says."""
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    problems: List[str] = []
    if doc.get("schema") != schema:
        problems.append(f"schema is {doc.get('schema')!r},"
                        f" expected {schema!r}")
    for path, fields in table:
        _check_fields(doc, path, fields, "", problems)
    return problems


def validate(doc: Dict[str, Any]) -> List[str]:
    """Return a list of schema-drift problems (empty means conformant)."""
    problems = _check_table(doc, SCHEMA, REQUIRED_FIELDS)
    if not isinstance(doc, dict):
        return problems
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

    A wrong container type (``null`` included) is reported only by the
    row that ends there, so rows that merely pass through it do not
    repeat the complaint.
    """
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
    elif isinstance(node, dict) and step in node:
        _check_fields(node[step], rest, fields,
                      f"{where}.{step}" if where else step, problems)


def validate_chaos(doc: Dict[str, Any]) -> List[str]:
    """Extended contract for fault-injection runs (``figure chaos``).

    Everything :func:`validate` requires, plus the ``chaos.*`` fault
    lifecycle metrics: each injected fault must have recovered (the
    engine drove the matching heal/restart), and every recovery recorded
    a downtime observation.
    """
    problems = validate(doc)
    if not isinstance(doc, dict):
        return problems
    for path, fields in REQUIRED_CHAOS_FIELDS:
        _check_fields(doc, path, fields, "", problems)
    counters = doc.get("counters")
    if isinstance(counters, dict):
        injected = counters.get("chaos.injected")
        recovered = counters.get("chaos.recovered")
        if is_number(injected) and not injected > 0:
            problems.append("chaos.injected is 0 (no fault ever fired)")
        if is_number(injected) and is_number(recovered) \
                and injected != recovered:
            problems.append(f"chaos.injected ({injected}) !="
                            f" chaos.recovered ({recovered}):"
                            " some fault never recovered")
    return problems


def is_number(value: Any) -> bool:
    """A JSON number (``bool`` is an ``int`` in Python, not a metric)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_bench(doc: Dict[str, Any]) -> List[str]:
    """Return schema problems of a ``pacon.bench/v1`` snapshot document.

    :data:`REQUIRED_BENCH_FIELDS` plus what a table cannot express:
    integer seeds, non-empty list-of-object ``rows``, numeric ``derived``.
    """
    problems = _check_table(doc, BENCH_SCHEMA, REQUIRED_BENCH_FIELDS)
    if not isinstance(doc, dict):
        return problems
    if "seed" in doc and not isinstance(doc["seed"], int):
        problems.append("'seed' is not an integer")
    experiments = doc.get("experiments")
    if experiments == {}:
        problems.append("no experiments in snapshot (runner never ran?)")
    if not isinstance(experiments, dict):
        return problems
    for name, record in experiments.items():
        if not isinstance(record, dict):
            continue
        if not isinstance(record.get("seed"), (int, type(None))):
            problems.append(f"experiment {name!r} 'seed' is not an integer")
        rows = record.get("rows")
        if rows is not None and not (isinstance(rows, list) and all(
                isinstance(row, dict) for row in rows)):
            problems.append(f"experiment {name!r} rows are not a list"
                            " of objects")
        elif rows == []:
            problems.append(f"experiment {name!r} has no rows")
        derived = record.get("derived")
        if isinstance(derived, dict):
            problems.extend(
                f"experiment {name!r} derived metric {key!r}"
                f" is not numeric ({value!r})"
                for key, value in derived.items() if not is_number(value))
    return problems


def validate_any(doc: Any, chaos: bool = False) -> List[str]:
    """Dispatch on the document's schema family (metrics vs bench);
    ``chaos`` holds a metrics export to :func:`validate_chaos`."""
    if isinstance(doc, dict) and \
            str(doc.get("schema", "")).startswith("pacon.bench/"):
        return validate_bench(doc)
    return validate_chaos(doc) if chaos else validate(doc)


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
        problems = validate_any(doc, chaos=chaos)
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
