"""Tests for the control-plane timeline (repro.obs.timeline)."""

import pytest

from repro.obs.timeline import NULL_TIMELINE, ControlEvent, Timeline


class TestTimeline:
    def test_record_returns_monotonic_seq(self):
        tl = Timeline()
        seq_a = tl.record(0.1, "chaos", "fault.injected", "mds_crash[0]")
        seq_b = tl.record(0.2, "chaos", "fault.recovered", "mds_crash[0]",
                          ref=seq_a)
        assert seq_b > seq_a > 0
        assert len(tl) == 2

    def test_events_sorted_by_time_then_seq(self):
        tl = Timeline()
        tl.record(0.5, "autoscale", "scale.grow", "late")
        tl.record(0.1, "autoscale", "scale.failed", "early",
                  duration=0.02)
        tl.record(0.1, "membership", "node.joined", "tie")
        keys = [(ev.time, ev.seq) for ev in tl.events()]
        assert keys == sorted(keys)
        assert [ev.label for ev in tl.events()] == ["early", "tie", "late"]

    def test_export_shape_and_event_fields(self):
        tl = Timeline()
        seq = tl.record(0.1, "chaos", "fault.injected", "partition[0]",
                        detail="cut#1")
        doc = tl.export()
        assert doc["count"] == 1
        assert doc["dropped"] == 0
        (ev,) = doc["events"]
        assert ev == {"seq": seq, "t": 0.1, "source": "chaos",
                      "kind": "fault.injected", "label": "partition[0]",
                      "detail": "cut#1", "duration": 0.0, "ref": -1}

    def test_capacity_drops_and_counts(self):
        tl = Timeline(capacity=2)
        assert tl.record(0.1, "chaos", "fault.injected", "a") > 0
        assert tl.record(0.2, "chaos", "fault.injected", "b") > 0
        assert tl.record(0.3, "chaos", "fault.injected", "c") == -1
        assert len(tl) == 2
        assert tl.dropped == 1
        assert tl.export()["dropped"] == 1

    def test_control_event_is_immutable(self):
        ev = ControlEvent(seq=1, time=0.1, source="chaos",
                          kind="fault.injected", label="x")
        with pytest.raises(AttributeError):
            ev.time = 0.5


class TestNullTimeline:
    def test_record_is_a_discarding_noop(self):
        assert NULL_TIMELINE.record(0.1, "chaos", "fault.injected",
                                    "x") == -1
        assert len(NULL_TIMELINE) == 0
        assert NULL_TIMELINE.events() == []
        assert NULL_TIMELINE.export() == {"count": 0, "dropped": 0,
                                          "events": []}
