"""Latency-attribution and resource-profile reports (``pacon-bench profile``).

Turns one observed run's exported document (and, for the per-op list, its
tracer) into two human-readable tables and a top-N list:

* per-op-class mean latency decomposed into the attribution buckets
  (cache, network, queue_wait, barrier, publish_stall, mds_service,
  mds_queue) plus the explicit residual — the sum of the printed columns
  reconstructs the mean end-to-end latency exactly;
* the top-N slowest individual operations with their own breakdowns and
  span trees' worth of context (op, path, outcome);
* per-resource utilization and queueing: lifetime utilization, busy
  time, acquires, total/mean wait, and the peak queue length.

The two tables are renderings of the ``attribution`` and ``resources``
sections of the exported ``pacon.metrics/v4`` document, so they need no
live run; only the per-op list reads the tracer (one span-tree pass).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.sim.trace import ATTRIBUTION_BUCKETS, Tracer

__all__ = ["slowest_ops", "render_attribution_table",
           "render_slowest_ops", "render_resource_table", "render_report"]


def slowest_ops(attributions: Dict[int, Dict[str, Any]],
                top: int = 10) -> List[Dict[str, Any]]:
    """The ``top`` highest-latency ops of ``Tracer.attributions()``.

    Ties break on op_id so the ordering (and any file written from it)
    is deterministic for same-seed runs.
    """
    ranked = sorted(attributions.items(),
                    key=lambda kv: (-kv[1]["duration"], kv[0]))
    return [dict(att, op_id=op_id) for op_id, att in ranked[:top]]


def _us(seconds: float) -> str:
    return f"{seconds * 1e6:.2f}"


def render_attribution_table(rollup: Dict[str, Any]) -> str:
    """Per-op-class mean latency decomposition (all times in µs) from the
    document's ``attribution`` section."""
    if not rollup["ops"]:
        return "no completed operations traced"
    headers = (["op", "count", "mean_us"] + list(ATTRIBUTION_BUCKETS)
               + ["residual"])
    rows = []
    for op_class in sorted(rollup["ops"]):
        entry = rollup["ops"][op_class]
        rows.append([op_class, str(entry["count"]),
                     _us(entry["mean_latency"])]
                    + [_us(entry["buckets"][b]) for b in ATTRIBUTION_BUCKETS]
                    + [_us(entry["residual"])])
    return _table(headers, rows)


def render_slowest_ops(attributions: Dict[int, Dict[str, Any]],
                       top: int = 10) -> str:
    """Top-N slowest ops, one line each, with bucket breakdowns in µs."""
    ops = slowest_ops(attributions, top=top)
    if not ops:
        return "no completed operations traced"
    headers = (["op_id", "op", "dur_us"] + list(ATTRIBUTION_BUCKETS)
               + ["residual", "detail"])
    rows = []
    for att in ops:
        rows.append([str(att["op_id"]), att["op"], _us(att["duration"])]
                    + [_us(att["buckets"][b]) for b in ATTRIBUTION_BUCKETS]
                    + [_us(att["residual"]), att["detail"]])
    return _table(headers, rows)


def render_resource_table(snapshot: Dict[str, Any]) -> str:
    """Per-resource utilization/queueing table (waits in µs) from the
    document's ``resources`` section."""
    if not snapshot:
        return "no resources registered"
    headers = ["resource", "cap", "util", "busy_us", "acquires",
               "wait_us", "mean_wait_us", "peak_q"]
    rows = []
    for name in sorted(snapshot):
        res = snapshot[name]
        acquires = res["total_acquires"]
        mean_wait = res["total_wait_time"] / acquires if acquires else 0.0
        rows.append([
            name, str(res["capacity"]), f"{res['utilization']:.3f}",
            _us(res["busy_time"]), str(acquires),
            _us(res["total_wait_time"]), _us(mean_wait),
            str(res["peak_queue"]),
        ])
    return _table(headers, rows)


def render_report(tracer: Tracer, doc: Dict[str, Any],
                  top: int = 10) -> str:
    """The full ``pacon-bench profile`` report of one run: its tracer and
    its exported document."""
    parts = [
        "== Latency attribution by op class (mean, us) ==",
        render_attribution_table(doc["attribution"]),
        "",
        f"== Top {top} slowest operations ==",
        render_slowest_ops(tracer.attributions(), top=top),
        "",
        "== Resource utilization and queueing ==",
        render_resource_table(doc["resources"]),
    ]
    open_spans = doc["trace"]["open_spans"]
    if open_spans:
        parts.append(f"\n... {open_spans} spans still open")
    return "\n".join(parts)


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(cells)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
