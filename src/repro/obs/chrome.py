"""Chrome trace-event JSON export for spans, instants, and gauges.

Converts a :class:`~repro.sim.trace.Tracer`'s causal span trees (and,
optionally, the ``series``, ``timeline`` and ``incidents`` sections of
the run's exported ``pacon.metrics/v4`` document) into the Trace Event
Format consumed by Perfetto and ``chrome://tracing``:

* every actor becomes a pid/tid pair — actors sharing a prefix group
  (``client``, ``commit``, ``commitq``, services, ``net``) share a pid so
  the viewer stacks related tracks together, with ``M`` metadata events
  naming each process and thread;
* closed spans become complete ``X`` events (ts + dur, microseconds),
  still-open spans become ``B`` begin events so hung work is visible as
  an unterminated slice rather than dropped;
* point events (commit, discard, coalesce, barrier) become instant
  ``i`` events;
* sampled gauge series become counter ``C`` events on a dedicated
  counters process;
* the exported control-plane ``timeline`` becomes
  a dedicated ``control-plane`` process with one stably-named thread
  per source (``autoscale``, ``chaos``, ``commit``, ``membership``):
  ``fault.injected``/``fault.recovered`` pairs and duration-carrying
  events render as complete ``X`` slices, the rest as instants — so an
  outage is a visible bar above the data-plane spans it explains;
* detected incidents (the ``incidents`` section) become ``X`` slices
  on an ``incidents`` process, carrying their rule, peak/bound, and top
  suspect in ``args``.

Everything is emitted in a deterministic order (ops by id, series by
name, timeline by seq, incidents by id), so two same-seed runs produce
byte-identical trace files.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.slo import series_in_window
from repro.obs.timeline import event_extents
from repro.sim.trace import Span, Tracer

__all__ = ["chrome_trace", "write_chrome_trace"]

#: Event kinds already represented as spans or structural markers; every
#: other tracer event kind is exported as an instant.
_NON_INSTANT_KINDS = ("op.start", "op.end", "span.start", "span.end")

#: pid reserved for counter tracks (gauge series).
_COUNTERS_PID = 1

#: pids reserved for the control-plane timeline and incident tracks.
#: High and fixed so dynamically assigned actor pids (which start right
#: after :data:`_COUNTERS_PID`) can never collide with them.
_CONTROL_PID = 1_000_000
_INCIDENTS_PID = 1_000_001


def _actor_group(actor: str) -> str:
    """Process-level grouping for an actor name.

    ``client:/app#0`` → ``client``; ``commit:node0`` → ``commit``;
    service and network actors (no colon) group under their own name.
    """
    return actor.split(":", 1)[0] if ":" in actor else actor


def _assign_ids(actors: List[str]) -> Tuple[Dict[str, Tuple[int, int]],
                                            Dict[str, int]]:
    """Deterministic actor → (pid, tid) assignment, sorted for stability."""
    groups: Dict[str, List[str]] = {}
    for actor in sorted(set(actors)):
        groups.setdefault(_actor_group(actor), []).append(actor)
    ids: Dict[str, Tuple[int, int]] = {}
    group_pids: Dict[str, int] = {}
    pid = _COUNTERS_PID + 1
    for group in sorted(groups):
        group_pids[group] = pid
        for tid, actor in enumerate(groups[group], start=1):
            ids[actor] = (pid, tid)
        pid += 1
    return ids, group_pids


def _span_events(root: Span, ids: Dict[str, Tuple[int, int]],
                 out: List[Dict[str, Any]]) -> None:
    for span in root.walk():
        pid, tid = ids[span.actor]
        name = (span.name or span.category) if span.category == "op" \
            else f"{span.category}:{span.name}" if span.name \
            else span.category
        common = {
            "name": name,
            "cat": span.category,
            "pid": pid,
            "tid": tid,
            "ts": span.start * 1e6,
            "args": {"op_id": span.op_id, "span_id": span.span_id},
        }
        if span.end is None:
            out.append({**common, "ph": "B"})
        else:
            out.append({**common, "ph": "X",
                        "dur": (span.end - span.start) * 1e6})


def _timeline_events(timeline: List[Dict[str, Any]], since: float,
                     until: float, out: List[Dict[str, Any]]) -> None:
    """Exported control-plane events → stable per-source tracks.

    An event with an extent inside the window (an injection whose
    recovery it also holds, anything carrying a duration) is a complete
    slice; everything else is an instant.
    """
    events = [ev for ev in timeline if since <= ev["t"] <= until]
    if not events:
        return
    sources = sorted({ev["source"] for ev in events})
    tids = {source: tid for tid, source in enumerate(sources, start=1)}
    out.append({"ph": "M", "name": "process_name", "pid": _CONTROL_PID,
                "tid": 0, "args": {"name": "control-plane"}})
    for source in sources:
        out.append({"ph": "M", "name": "thread_name", "pid": _CONTROL_PID,
                    "tid": tids[source], "args": {"name": source}})
    for ev, end in event_extents(events):
        common = {
            "name": f"{ev['kind']} {ev['label']}".strip(),
            "cat": ev["kind"],
            "pid": _CONTROL_PID,
            "tid": tids[ev["source"]],
            "ts": ev["t"] * 1e6,
            "args": {"seq": ev["seq"], "detail": ev["detail"]},
        }
        if end is not None:
            out.append({**common, "ph": "X",
                        "dur": (end - ev["t"]) * 1e6})
        else:
            out.append({**common, "ph": "i", "s": "t"})


def _incident_events(incidents: List[Dict[str, Any]], since: float,
                     until: float, out: List[Dict[str, Any]]) -> None:
    """Detected incidents → one slice each on the ``incidents`` process."""
    kept = [inc for inc in incidents if since <= inc["start"] <= until]
    if not kept:
        return
    out.append({"ph": "M", "name": "process_name", "pid": _INCIDENTS_PID,
                "tid": 0, "args": {"name": "incidents"}})
    out.append({"ph": "M", "name": "thread_name", "pid": _INCIDENTS_PID,
                "tid": 1, "args": {"name": "slo-breaches"}})
    for inc in kept:
        suspects = inc.get("suspects") or []
        top = suspects[0]["label"] if suspects else ""
        out.append({
            "ph": "X",
            "name": f"{inc['id']} {inc['rule']}",
            "cat": "incident",
            "pid": _INCIDENTS_PID,
            "tid": 1,
            "ts": inc["start"] * 1e6,
            "dur": (inc["end"] - inc["start"]) * 1e6,
            "args": {"series": inc["series"], "peak": inc["peak"],
                     "bound": inc["bound"], "top_suspect": top},
        })


def chrome_trace(tracer: Tracer, doc: Optional[Dict[str, Any]] = None,
                 since: float = 0.0,
                 until: float = float("inf")) -> Dict[str, Any]:
    """Build the Chrome trace document (a JSON-serializable dict).

    ``doc`` is the run's exported metrics document; without one only the
    tracer's spans and instants are drawn.  ``since``/``until`` clip by
    *root-span start time*: an op is included iff it starts inside the
    window (its children ride along), and instants/counters are clipped
    to the window directly.
    """
    events: List[Dict[str, Any]] = []
    trees = tracer.span_trees()
    instants = [ev for ev in tracer.events(since=since, until=until)
                if ev.kind not in _NON_INSTANT_KINDS]
    actors: List[str] = [ev.actor for ev in instants]
    kept_roots = []
    for op_id in sorted(trees):
        root = trees[op_id]
        if not (since <= root.start <= until):
            continue
        kept_roots.append(root)
        actors.extend(span.actor for span in root.walk())
    ids, group_pids = _assign_ids(actors)

    # Metadata: name every process and thread (sorted by pid/tid).
    for group, pid in sorted(group_pids.items(), key=lambda kv: kv[1]):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": group}})
    for actor, (pid, tid) in sorted(ids.items(), key=lambda kv: kv[1]):
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": actor}})
    if doc is not None:
        events.append({"ph": "M", "name": "process_name",
                       "pid": _COUNTERS_PID, "tid": 0,
                       "args": {"name": "counters"}})

    for root in kept_roots:
        _span_events(root, ids, events)
    for ev in instants:
        pid, tid = ids[ev.actor]
        events.append({
            "ph": "i",
            "name": f"{ev.kind} {ev.detail}".strip(),
            "cat": ev.kind,
            "pid": pid,
            "tid": tid,
            "ts": ev.time * 1e6,
            "s": "t",  # thread-scoped instant
        })
    if doc is not None:
        for name, points in series_in_window(doc, window=(since, until)):
            for t, v in points:
                events.append({
                    "ph": "C",
                    "name": name,
                    "pid": _COUNTERS_PID,
                    "tid": 0,
                    "ts": t * 1e6,
                    "args": {"value": v},
                })
        _timeline_events(doc["timeline"]["events"], since, until, events)
        _incident_events(doc["incidents"]["incidents"], since, until,
                         events)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, tracer: Tracer,
                       doc: Optional[Dict[str, Any]] = None,
                       since: float = 0.0,
                       until: float = float("inf")) -> int:
    """Write the trace to ``path``; returns the number of trace events.

    ``sort_keys`` keeps the bytes identical across same-seed runs.
    """
    trace = chrome_trace(tracer, doc, since=since, until=until)
    with open(path, "w") as fh:
        json.dump(trace, fh, sort_keys=True)
    return len(trace["traceEvents"])
