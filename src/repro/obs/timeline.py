"""The control-plane timeline: one sim-time-ordered event log per run.

Pacon's partial-consistency design makes *explaining* a degradation
window as important as detecting it: a staleness or backlog breach is
almost always downstream of some control-plane action — a chaos fault,
an autoscale grow/retire (or its failure), a membership change.  Those
layers each kept private records (``FaultRecord``, ``AutoscaleAction``,
``membership_log``) and disjoint ``chaos.*``/``autoscale.*`` counters;
nothing lined them up on one time axis.

A :class:`Timeline` is that axis: an append-only, capacity-bounded log
of :class:`ControlEvent` records fed by instrumentation hooks in the
chaos engine, the autoscaler and region membership.  Every hook is
guarded by ``hub.enabled``, and the hub only allocates a Timeline when
it is enabled — the shared
:data:`NULL_TIMELINE` has ``enabled`` off, so ``record`` discards
everything — so the zero-cost-when-off guarantee of the rest of
``repro.obs`` holds here too (the tests prove it by monkeypatching
allocation to raise).

Events are recorded *when their outcome is known* but stamped with
their *start* time (a scale-up is recorded after the migration lands,
timestamped at the decision), so :meth:`Timeline.export` sorts by
``(time, seq)`` to restore simulation order.  Everything downstream —
the v4 ``timeline`` export section, the incident blame attributor
(:mod:`repro.obs.incidents`), the Perfetto control-plane tracks — reads
that sorted order, and same-seed runs produce byte-identical sections.

Event vocabulary (``source`` / ``kind``):

========== ==================== =========================================
source     kind                 meaning
========== ==================== =========================================
chaos      fault.injected       a scheduled fault fired (``ref`` pairs
                                the matching recovery)
chaos      fault.recovered      the fault's recovery completed
autoscale  scale.grow           controller grew the region (ok)
autoscale  scale.retire         controller retired a node (ok)
autoscale  scale.failed         a grow/retire raised; error in detail
autoscale  scale.rejected       decision suppressed (bounds, candidates)
membership node.joined          region membership grew (any path)
membership node.departed        region membership shrank (any path)
========== ==================== =========================================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["ControlEvent", "Timeline", "NULL_TIMELINE", "event_extents"]


@dataclass(frozen=True)
class ControlEvent:
    """One control-plane event.

    ``duration`` is the event's own extent where it has one (a scaling
    action's latency); interval faults instead pair a
    point ``fault.injected`` with a ``fault.recovered`` whose ``ref``
    names the injection's ``seq``.
    """

    seq: int
    time: float
    source: str        # chaos | autoscale | membership
    kind: str          # see module docstring vocabulary
    label: str         # target label, e.g. "mds_crash[0]" or a node name
    detail: str = ""
    duration: float = 0.0
    ref: int = -1      # seq of the paired opening event; -1 = none

    def to_doc(self) -> Dict[str, Any]:
        """The exported record: the fields as they are, ``time`` as ``t``."""
        doc = asdict(self)
        doc["t"] = doc.pop("time")
        return doc


class Timeline:
    """Append-only control-plane event log with a capacity backstop."""

    def __init__(self, capacity: int = 100_000):
        self.capacity = capacity
        self._events: List[ControlEvent] = []
        self.dropped = 0
        self._next_seq = 0
        self.enabled = True

    # -- recording (call sites guard on hub.enabled) -----------------------
    def record(self, time: float, source: str, kind: str, label: str,
               detail: str = "", duration: float = 0.0,
               ref: int = -1) -> int:
        """Append one event; returns its ``seq`` (for pairing), -1 if
        dropped at capacity or the timeline is disabled."""
        if not self.enabled:
            return -1
        if len(self._events) >= self.capacity:
            self.dropped += 1
            return -1
        self._next_seq += 1
        self._events.append(ControlEvent(
            seq=self._next_seq, time=time, source=source, kind=kind,
            label=label, detail=detail, duration=duration, ref=ref))
        return self._next_seq

    # -- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[ControlEvent]:
        """All events in simulation order (``(time, seq)``-sorted)."""
        return sorted(self._events, key=lambda ev: (ev.time, ev.seq))

    def export(self) -> Dict[str, Any]:
        """The v4 ``timeline`` section: stable-ordered event dicts."""
        return {
            "count": len(self._events),
            "dropped": self.dropped,
            "events": [ev.to_doc() for ev in self.events()],
        }

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0


def event_extents(events: List[Dict[str, Any]],
                  ) -> Iterator[Tuple[Dict[str, Any], Optional[float]]]:
    """``(event, end)`` for each exported event in order, ``end`` None for
    a point: the one place an event gets its extent.

    A ``fault.recovered`` whose ``ref`` names an injection's ``seq`` is
    folded into that injection (which ends at the recovery) and not
    returned; an event carrying a ``duration`` ends after it.
    """
    recovered_at = {ev["ref"]: ev["t"] for ev in events
                    if ev["kind"] == "fault.recovered" and ev["ref"] >= 0}
    for ev in events:
        if ev["kind"] == "fault.recovered" and ev["ref"] >= 0:
            continue
        end = recovered_at.get(ev["seq"])
        if end is None and ev["duration"] > 0.0:
            end = ev["t"] + ev["duration"]
        yield ev, end


#: The shared disabled timeline a disabled hub carries.
NULL_TIMELINE = Timeline(capacity=0)
NULL_TIMELINE.enabled = False
