"""Incident detection and causal blame attribution over v4 exports.

The SLO engine (:mod:`repro.obs.slo`) answers "did the run pass?"; this
module answers "*when* did it degrade and *what caused it*?".  It is the
analysis half of the incident flight recorder: the control-plane
:class:`~repro.obs.timeline.Timeline` records what the operators (chaos
engine, autoscaler, membership, backpressure) *did*, and this module
lines those events up against what the gauges *saw*.

Everything is pure arithmetic over one already-exported metrics document
— the same dict :meth:`MetricsHub.export` builds, or the same JSON
loaded back from disk — so detection works identically online (stamped
into the export as the ``incidents`` section) and offline
(re-reading a saved export), and same-seed runs
produce byte-identical sections.

Detection
---------
Each :class:`IncidentRule` watches one gauge-series family (e.g. every
``queue.depth[...]`` merged, per-tick max across queues).  The breach
bound is *adaptive* by default: ``max(floor, adapt_factor × pXX of the
run's own samples, floor_frac × peak, span_frac × sampled span)`` — so
a chaos run whose baseline stall-age is microseconds still flags a
millisecond freeze, while a run that lives at milliseconds is not
spammed.  An incident opens
after ``open_after`` consecutive breaching ticks (hysteresis against
single-sample blips) and closes after ``close_after`` consecutive clean
ticks (hysteresis against flapping), then gets a real
:class:`~repro.obs.slo.SeriesThresholdObjective` verdict evaluated over
exactly its own window.

Blame
-----
Every timeline event becomes a *cause interval*: a fault spans
injection→recovery (paired by ``ref``), a scaling action or stall spans
its duration, membership changes are points.  A suspect's score against
an incident is ``weight × (1.5 × overlap + precedence)`` where
``overlap`` is the fraction of the incident covered by the cause and
``precedence`` rewards causes that began shortly before the incident
opened.  Weights (:data:`CAUSE_WEIGHTS`) encode the causal prior:
injected faults outrank failed scaling actions outrank planned scaling
outrank their own membership side-effects outrank backpressure stalls
(which are usually symptoms).  Each suspect carries an evidence string::

    mds_crash[0]@t=12.4 → queue.depth ↑ peak 38 (bound 6) →
        commit-backlog breach 12.6–19.1

Resource saturation (PR-3 ``resource.util[*]`` profiles) corroborates:
resources whose utilization exceeded 90% inside the incident window are
listed under ``saturated``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.slo import (SeriesThresholdObjective, _series_points,
                           series_in_window)
from repro.obs.timeline import event_extents

__all__ = [
    "IncidentRule",
    "DEFAULT_RULES",
    "CAUSE_WEIGHTS",
    "detect_incidents",
    "fault_attribution",
    "format_report",
]

#: Causal prior per timeline-event kind.  Faults are the strongest
#: explanation; membership changes rank below the scaling/chaos actions
#: that produced them so a churn fault beats its own side-effects;
#: backpressure stalls are usually symptoms, not causes.
CAUSE_WEIGHTS: Dict[str, float] = {
    "fault.injected": 1.0,
    "scale.failed": 0.9,
    "scale.rejected": 0.7,
    "scale.grow": 0.6,
    "scale.retire": 0.6,
    "node.joined": 0.45,
    "node.departed": 0.45,
    "backpressure.stall": 0.3,
}

#: Utilization above this inside an incident window marks the resource
#: as saturated (corroborating evidence, not a suspect).
SATURATION_UTIL = 0.9

#: Suspects reported per incident.
MAX_SUSPECTS = 5


@dataclass(frozen=True)
class IncidentRule:
    """One watched gauge-series family and its breach policy.

    ``bound`` fixes an absolute threshold; when None the bound adapts to
    the run: ``max(floor, adapt_factor × pXX(samples), floor_frac ×
    peak, span_frac × sampled-span)``.  ``span_frac`` expresses
    age-style bounds as a fraction of the run (mirroring the chaos SLO
    policy, which sizes staleness bounds off the horizon).
    ``open_after``/``close_after`` are breach/clean tick streaks
    required to open/close an incident.
    """

    name: str
    series: str
    bound: Optional[float] = None
    adapt_factor: float = 8.0
    adapt_percentile: float = 50.0
    floor: float = 0.0
    floor_frac: float = 0.0
    span_frac: float = 0.0
    open_after: int = 2
    close_after: int = 3

    def resolve_bound(self, values: List[float], span: float = 0.0,
                      ) -> float:
        if self.bound is not None:
            return self.bound
        if not values:
            return self.floor
        ordered = sorted(values)
        idx = int(round(self.adapt_percentile / 100.0
                        * (len(ordered) - 1)))
        baseline = ordered[min(idx, len(ordered) - 1)]
        return max(self.floor, self.adapt_factor * baseline,
                   self.floor_frac * ordered[-1],
                   self.span_frac * span)


#: The rules every v4 export is stamped with, one per degradation lens.
#:
#: * ``commit-stall`` — the pipeline froze: ``commit.stall_age`` tracks
#:   how long resolution has made zero progress while work is
#:   outstanding.  Healthy epoch batching pauses for a few sample
#:   intervals at a time; the adaptive bound (2 × its own p90, floored
#:   well above one interval) only trips on the long freezes an MDS
#:   outage, partition, or wedged barrier produces.
#: * ``client-errors`` — availability: any failed client op breaches
#:   (``bound=0.5`` against an integer-count gauge).  Retries arrive
#:   sparser than the sampling tick, so the rule opens on a single
#:   breaching tick and rides out gaps with a long close streak.
#: * ``staleness-burn`` — the staleness lens, sized like the chaos SLO
#:   policy's horizon-relative bounds: pending metadata older than a
#:   quarter of the sampled span is burning the staleness budget no
#:   matter what caused it (an incident with no suspects means the
#:   workload itself oversubscribed the pipeline).
#: * ``commit-backlog`` — queue depth beyond 4 × its own p90: a
#:   defensive lens for flash-crowd pile-ups that never translate into
#:   stalls or staleness.
DEFAULT_RULES: Tuple[IncidentRule, ...] = (
    IncidentRule("commit-stall", "commit.stall_age",
                 adapt_factor=2.0, adapt_percentile=90.0,
                 floor=1.5e-3, open_after=2, close_after=3),
    IncidentRule("client-errors", "client.error_rate",
                 bound=0.5, open_after=1, close_after=8),
    IncidentRule("staleness-burn", "consistency.pending_age",
                 adapt_factor=0.0, span_frac=0.25,
                 open_after=2, close_after=3),
    IncidentRule("commit-backlog", "queue.depth",
                 adapt_factor=4.0, adapt_percentile=90.0,
                 floor=6.0),
)


def _ticks(points: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Collapse merged multi-source points to per-timestamp maxima.

    ``_series_points`` interleaves every ``series[...]`` instance; streak
    hysteresis needs one value per sampling instant, and the pessimistic
    (max) reading is the one that should open incidents.
    """
    out: List[Tuple[float, float]] = []
    for t, v in points:  # points arrive (t, v)-sorted
        if out and out[-1][0] == t:
            if v > out[-1][1]:
                out[-1] = (t, v)
        else:
            out.append((t, v))
    return out


def _detect_windows(rule: IncidentRule,
                    ticks: List[Tuple[float, float]],
                    bound: float) -> List[Tuple[float, float, float]]:
    """Streak-hysteresis scan → ``(start, end, peak)`` windows."""
    windows: List[Tuple[float, float, float]] = []
    breach_start: Optional[float] = None   # first tick of breach streak
    open_start: Optional[float] = None     # confirmed incident start
    last_breach: Optional[float] = None
    peak = 0.0          # incident-wide peak (once confirmed)
    streak_peak = 0.0   # current unconfirmed streak's peak
    breaching = 0
    clean = 0
    for t, v in ticks:
        if v > bound:
            breaching += 1
            clean = 0
            if breach_start is None:
                breach_start = t
                streak_peak = v
            else:
                streak_peak = max(streak_peak, v)
            last_breach = t
            if open_start is not None:
                peak = max(peak, v)
            elif breaching >= rule.open_after:
                open_start = breach_start
                peak = streak_peak
        else:
            breaching = 0
            breach_start = None
            if open_start is not None:
                clean += 1
                if clean >= rule.close_after:
                    windows.append((open_start, last_breach, peak))
                    open_start = None
                    clean = 0
                    peak = 0.0
    if open_start is not None and last_breach is not None:
        windows.append((open_start, last_breach, peak))
    return windows


def _cause_intervals(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Timeline events → scored cause intervals.

    Faults span injection→recovery, events with a duration span it, the
    rest are points (:func:`~repro.obs.timeline.event_extents`).
    Unrecovered faults stay open-ended (``end`` None, clamped per
    incident).
    """
    events = ((doc.get("timeline") or {}).get("events")) or []
    causes: List[Dict[str, Any]] = []
    for ev, end in event_extents(events):
        kind = ev["kind"]
        if kind not in CAUSE_WEIGHTS:
            continue
        if end is None and kind != "fault.injected":
            end = ev["t"]
        causes.append({
            "seq": ev["seq"],
            "kind": kind,
            "label": ev["label"],
            "start": ev["t"],
            "end": end,
            "weight": CAUSE_WEIGHTS[kind],
        })
    return causes


def _blame(causes: List[Dict[str, Any]], start: float, end: float,
           span: float, rule: IncidentRule, bound: float, peak: float,
           ) -> List[Dict[str, Any]]:
    """Rank cause intervals against one incident window."""
    duration = max(end - start, 1e-12)
    lookback = max(2.0 * duration, 0.05 * span)
    suspects: List[Tuple[float, int, Dict[str, Any]]] = []
    for cause in causes:
        c0 = cause["start"]
        c1 = cause["end"] if cause["end"] is not None else end
        if c0 > end:
            continue  # cause began after the incident was over
        overlap = max(0.0, min(end, c1) - max(start, c0)) / duration
        gap = start - c0
        if gap >= 0:
            precedence = max(0.0, 1.0 - gap / lookback)
        else:
            precedence = 0.75  # emerged mid-incident: cascade suspect
        score = cause["weight"] * (1.5 * overlap + precedence)
        if score <= 0.0:
            continue
        suspects.append((score, cause["seq"], cause))
    suspects.sort(key=lambda item: (-item[0], item[1]))
    out: List[Dict[str, Any]] = []
    for rank, (score, seq, cause) in enumerate(
            suspects[:MAX_SUSPECTS], start=1):
        out.append({
            "rank": rank,
            "seq": seq,
            "kind": cause["kind"],
            "label": cause["label"],
            "t": cause["start"],
            "score": round(score, 6),
            "evidence": (
                f"{cause['label']}@t={cause['start']:.4g}"
                f" → {rule.series} ↑ peak {peak:.4g}"
                f" (bound {bound:.4g})"
                f" → {rule.name} breach {start:.4g}–{end:.4g}"),
        })
    return out


def _saturated(doc: Dict[str, Any], start: float, end: float) -> List[str]:
    """Resources whose ``resource.util`` exceeded the saturation bar
    inside the window (corroborating evidence for blame)."""
    return [name[len("resource.util["):-1]
            for name, points in series_in_window(doc, "resource.util",
                                                 (start, end))
            if max([v for _, v in points], default=0.0) > SATURATION_UTIL]


def detect_incidents(doc: Dict[str, Any],
                     rules: Optional[Tuple[IncidentRule, ...]] = None,
                     ) -> Dict[str, Any]:
    """The v4 ``incidents`` section for one exported document.

    Pure and deterministic: same document → byte-identical section.
    Usable online (inside :meth:`MetricsHub.export`) and offline
    (over a saved v4 JSON).
    """
    rules = DEFAULT_RULES if rules is None else rules
    causes = _cause_intervals(doc)
    found: List[Dict[str, Any]] = []
    for rule in rules:
        points = _series_points(doc, rule.series)
        if not points:
            continue
        ticks = _ticks(points)
        span = max(ticks[-1][0] - ticks[0][0], 1e-12)
        bound = rule.resolve_bound([v for _, v in ticks], span)
        for start, end, peak in _detect_windows(rule, ticks, bound):
            verdict = SeriesThresholdObjective(
                f"{rule.name}@incident", rule.series, bound,
                mode="max").evaluate(doc, window=(start, end))
            found.append({
                "rule": rule.name,
                "series": rule.series,
                "start": start,
                "end": end,
                "duration": end - start,
                "peak": peak,
                "bound": bound,
                "verdict": asdict(verdict),
                "suspects": _blame(causes, start, end, span, rule,
                                   bound, peak),
                "saturated": _saturated(doc, start, end),
            })
    found.sort(key=lambda inc: (inc["start"], inc["rule"]))
    for idx, inc in enumerate(found, start=1):
        inc["id"] = f"INC-{idx:03d}"
    return {
        "policy": "incident-default",
        "rules": [asdict(rule) for rule in rules],
        "count": len(found),
        "incidents": found,
    }


def fault_attribution(doc: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per injected fault: which incidents blamed it, and was it ever the
    top suspect?  This is the CI gate's payload — every chaos scenario
    must attribute every injected fault to at least one incident with
    the fault ranked first.
    """
    events = ((doc.get("timeline") or {}).get("events")) or []
    incidents = ((doc.get("incidents") or {}).get("incidents")) or []
    out: List[Dict[str, Any]] = []
    for ev in events:
        if ev.get("kind") != "fault.injected":
            continue
        blamed: List[str] = []
        top: List[str] = []
        for inc in incidents:
            for suspect in inc.get("suspects", []):
                if suspect["seq"] == ev["seq"]:
                    blamed.append(inc["id"])
                    if suspect["rank"] == 1:
                        top.append(inc["id"])
                    break
        out.append({
            "seq": ev["seq"],
            "fault": ev.get("label", ""),
            "t": ev["t"],
            "incidents": blamed,
            "top_suspect_of": top,
            "attributed": bool(top),
        })
    return out


def format_report(doc: Dict[str, Any]) -> str:
    """Human-readable incident report (CLI + CI logs)."""
    section = doc.get("incidents") or {}
    incidents = section.get("incidents") or []
    lines = [f"incidents: {len(incidents)}"
             f" (policy {section.get('policy', '?')})"]
    for inc in incidents:
        verdict = inc.get("verdict") or {}
        lines.append(
            f"  {inc['id']} [{inc['rule']}] {inc['start']:.6g}"
            f"–{inc['end']:.6g}  peak {inc['peak']:.4g}"
            f" > bound {inc['bound']:.4g}"
            f"  slo:{'ok' if verdict.get('ok') else 'BREACH'}")
        for suspect in inc.get("suspects", []):
            lines.append(f"    #{suspect['rank']}"
                         f" score {suspect['score']:.3f}"
                         f"  {suspect['evidence']}")
        if inc.get("saturated"):
            lines.append("    saturated: "
                         + ", ".join(inc["saturated"]))
    attribution = fault_attribution(doc)
    if attribution:
        lines.append("fault attribution:")
        for row in attribution:
            status = "ok  " if row["attributed"] else "MISS"
            targets = ", ".join(row["top_suspect_of"]) or "-"
            lines.append(f"  [{status}] {row['fault']:<28}"
                         f" t={row['t']:.6g}  top suspect of: {targets}")
    return "\n".join(lines)
