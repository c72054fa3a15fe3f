"""Tests for incident detection + blame attribution (repro.obs.incidents).

Unit tests drive the detector over hand-built documents (the detection
and blame arithmetic is pure); integration tests prove the flight
recorder end to end on a chaos scenario — timeline recorded, incidents
detected, the injected fault ranked top suspect — plus same-seed
byte-determinism and the zero-cost-when-off guarantee.
"""

import json

from repro.chaos.scenarios import run_scenario
from repro.obs.incidents import (
    CAUSE_WEIGHTS,
    DEFAULT_RULES,
    IncidentRule,
    detect_incidents,
    fault_attribution,
    format_report,
)


def make_doc(points, events=(), series="x"):
    """Minimal metrics doc: one gauge series + timeline events."""
    return {
        "schema": "pacon.metrics/v4",
        "series": {series: {"t": [t for t, _ in points],
                            "v": [v for _, v in points]}},
        "timeline": {"count": len(events), "dropped": 0,
                     "events": list(events)},
    }


def event(seq, t, kind, label="ev", ref=-1, duration=0.0):
    return {"seq": seq, "t": t, "source": "chaos", "kind": kind,
            "label": label, "detail": "", "duration": duration,
            "ref": ref}


RULE = IncidentRule("r", "x", bound=1.0, open_after=2, close_after=2)


class TestDetection:
    def test_breach_streak_opens_and_closes_incident(self):
        points = [(i * 0.25, v) for i, v in
                  enumerate([0, 0, 2, 3, 2, 0, 0, 0])]
        section = detect_incidents(make_doc(points), rules=(RULE,))
        assert section["count"] == 1
        (inc,) = section["incidents"]
        assert inc["id"] == "INC-001"
        assert inc["start"] == 0.5
        assert inc["end"] == 1.0
        assert inc["peak"] == 3
        assert inc["bound"] == 1.0
        assert inc["verdict"]["ok"] is False

    def test_single_blip_below_open_after_is_ignored(self):
        points = [(i * 0.25, v) for i, v in enumerate([0, 5, 0, 0, 5, 0, 0])]
        section = detect_incidents(make_doc(points), rules=(RULE,))
        assert section["count"] == 0

    def test_flapping_inside_close_after_stays_one_incident(self):
        # one clean tick between breaches < close_after=2: no split
        points = [(i * 0.25, v) for i, v in
                  enumerate([2, 2, 0, 2, 2, 0, 0, 0])]
        section = detect_incidents(make_doc(points), rules=(RULE,))
        assert section["count"] == 1
        (inc,) = section["incidents"]
        assert (inc["start"], inc["end"]) == (0.0, 1.0)

    def test_open_incident_at_end_of_run_still_reported(self):
        points = [(i * 0.25, v) for i, v in enumerate([0, 0, 2, 3])]
        section = detect_incidents(make_doc(points), rules=(RULE,))
        (inc,) = section["incidents"]
        assert (inc["start"], inc["end"]) == (0.5, 0.75)

    def test_peak_includes_preconfirmation_ticks(self):
        # the highest sample arrives before the streak confirms
        points = [(i * 0.25, v) for i, v in enumerate([0, 9, 2, 2, 0, 0, 0])]
        rule = IncidentRule("r", "x", bound=1.0, open_after=3,
                            close_after=2)
        (inc,) = detect_incidents(make_doc(points),
                                  rules=(rule,))["incidents"]
        assert inc["peak"] == 9

    def test_absent_series_yields_no_incidents(self):
        section = detect_incidents(make_doc([], series="y"), rules=(RULE,))
        assert section["count"] == 0
        assert [r["name"] for r in section["rules"]] == ["r"]


class TestAdaptiveBound:
    def test_fixed_bound_wins_over_adaptation(self):
        rule = IncidentRule("r", "x", bound=2.0, adapt_factor=100.0)
        assert rule.resolve_bound([1.0, 1.0], span=10.0) == 2.0

    def test_percentile_scaling(self):
        rule = IncidentRule("r", "x", adapt_factor=4.0,
                            adapt_percentile=50.0)
        assert rule.resolve_bound([0.0, 1.0, 2.0], span=0.0) == 4.0

    def test_floor_dominates_tiny_baselines(self):
        rule = IncidentRule("r", "x", adapt_factor=2.0, floor=5.0)
        assert rule.resolve_bound([0.1, 0.1, 0.1], span=0.0) == 5.0

    def test_floor_frac_tracks_peak(self):
        rule = IncidentRule("r", "x", adapt_factor=0.0, floor_frac=0.5)
        assert rule.resolve_bound([0.0, 8.0], span=0.0) == 4.0

    def test_span_frac_tracks_sampled_span(self):
        rule = IncidentRule("r", "x", adapt_factor=0.0, span_frac=0.25)
        assert rule.resolve_bound([0.0, 0.1], span=2.0) == 0.5

    def test_empty_series_falls_back_to_floor(self):
        rule = IncidentRule("r", "x", floor=3.0)
        assert rule.resolve_bound([], span=9.0) == 3.0


class TestBlame:
    def breach_points(self):
        return [(i * 0.25, v) for i, v in
                enumerate([0, 0, 2, 3, 2, 0, 0, 0])]

    def test_fault_interval_paired_by_ref(self):
        events = [event(1, 0.4, "fault.injected", "mds_crash[0]"),
                  event(2, 1.1, "fault.recovered", "mds_crash[0]", ref=1)]
        (inc,) = detect_incidents(make_doc(self.breach_points(), events),
                                  rules=(RULE,))["incidents"]
        (suspect,) = inc["suspects"]
        assert suspect["rank"] == 1
        assert suspect["seq"] == 1
        assert suspect["kind"] == "fault.injected"
        assert "mds_crash[0]" in suspect["evidence"]
        assert "breach" in suspect["evidence"]

    def test_unrecovered_fault_is_open_ended(self):
        events = [event(1, 0.4, "fault.injected", "mds_crash[0]")]
        (inc,) = detect_incidents(make_doc(self.breach_points(), events),
                                  rules=(RULE,))["incidents"]
        assert inc["suspects"][0]["seq"] == 1

    def test_cause_after_incident_end_not_blamed(self):
        events = [event(1, 3.0, "scale.grow", "late")]
        (inc,) = detect_incidents(make_doc(self.breach_points(), events),
                                  rules=(RULE,))["incidents"]
        assert inc["suspects"] == []

    def test_overlapping_fault_outranks_preceding_scaling_action(self):
        events = [event(1, 0.45, "scale.grow", "n9", duration=0.02),
                  event(2, 0.4, "fault.injected", "mds_crash[0]"),
                  event(3, 1.1, "fault.recovered", "mds_crash[0]", ref=2)]
        (inc,) = detect_incidents(make_doc(self.breach_points(), events),
                                  rules=(RULE,))["incidents"]
        assert [s["seq"] for s in inc["suspects"]] == [2, 1]

    def test_suspect_list_capped(self):
        events = [event(i, 0.4 + i * 1e-3, "node.joined", f"n{i}")
                  for i in range(1, 10)]
        (inc,) = detect_incidents(make_doc(self.breach_points(), events),
                                  rules=(RULE,))["incidents"]
        assert len(inc["suspects"]) == 5
        assert [s["rank"] for s in inc["suspects"]] == [1, 2, 3, 4, 5]

    def test_recovered_event_is_not_its_own_cause(self):
        events = [event(1, 0.4, "fault.injected", "f"),
                  event(2, 0.25, "fault.recovered", "f", ref=1)]
        (inc,) = detect_incidents(make_doc(self.breach_points(), events),
                                  rules=(RULE,))["incidents"]
        assert [s["seq"] for s in inc["suspects"]] == [1]

    def test_every_timeline_kind_has_a_weight_or_is_recovery(self):
        # the vocabulary documented in repro.obs.timeline
        vocabulary = {"fault.injected", "scale.grow", "scale.retire",
                      "scale.failed", "scale.rejected", "node.joined",
                      "node.departed"}
        assert vocabulary == set(CAUSE_WEIGHTS)


class TestAttribution:
    def test_attributed_fault(self):
        events = [event(1, 0.4, "fault.injected", "mds_crash[0]"),
                  event(2, 1.1, "fault.recovered", "mds_crash[0]", ref=1)]
        doc = make_doc([(i * 0.25, v) for i, v in
                        enumerate([0, 0, 2, 3, 2, 0, 0, 0])], events)
        doc["incidents"] = detect_incidents(doc, rules=(RULE,))
        (row,) = fault_attribution(doc)
        assert row["fault"] == "mds_crash[0]"
        assert row["attributed"] is True
        assert row["top_suspect_of"] == ["INC-001"]
        assert "ok" in format_report(doc)

    def test_unattributed_fault_flagged(self):
        events = [event(1, 0.4, "fault.injected", "mds_crash[0]")]
        doc = make_doc([(0.0, 0.0), (0.1, 0.0)], events)
        doc["incidents"] = detect_incidents(doc, rules=(RULE,))
        (row,) = fault_attribution(doc)
        assert row["attributed"] is False
        assert "MISS" in format_report(doc)

    def test_no_faults_no_rows(self):
        doc = make_doc([(0.0, 0.0)])
        doc["incidents"] = detect_incidents(doc, rules=(RULE,))
        assert fault_attribution(doc) == []


class TestFlightRecorderEndToEnd:
    def test_node_crash_fault_is_top_suspect(self):
        result = run_scenario("node_crash")
        doc = result.metrics_doc
        assert doc["timeline"]["count"] >= 2  # inject + recover at least
        kinds = {ev["kind"] for ev in doc["timeline"]["events"]}
        assert {"fault.injected", "fault.recovered"} <= kinds
        assert doc["incidents"]["count"] >= 1
        assert result.attribution, "fault_attribution produced no rows"
        assert result.faults_attributed, format_report(doc)

    def test_same_seed_sections_byte_identical(self):
        a = run_scenario("node_crash", items=8)
        b = run_scenario("node_crash", items=8)
        for key in ("timeline", "incidents"):
            assert (json.dumps(a.metrics_doc[key], sort_keys=True)
                    == json.dumps(b.metrics_doc[key], sort_keys=True))

    def test_default_rules_cover_the_three_lenses(self):
        lenses = {rule.series for rule in DEFAULT_RULES}
        assert {"commit.stall_age", "client.error_rate",
                "consistency.pending_age"} <= lenses


class TestZeroCostWhenOff:
    def test_disabled_world_allocates_no_timeline_or_detector(
            self, monkeypatch):
        import repro.obs.incidents as incidents_mod
        import repro.obs.timeline as timeline_mod
        from repro.obs.hub import NULL_HUB, MetricsHub
        from repro.obs.timeline import NULL_TIMELINE
        from tests.obs.conftest import make_observed_world

        def boom(*a, **kw):
            raise AssertionError("allocated with observability off")

        monkeypatch.setattr(timeline_mod.Timeline, "__init__", boom)
        monkeypatch.setattr(incidents_mod, "detect_incidents", boom)
        # A disabled hub shares the null timeline instead of building one.
        assert MetricsHub(enabled=False).timeline is NULL_TIMELINE
        # An uninstrumented world exercises every hook site's guard:
        # membership changes and client publishes must not record.
        world = make_observed_world(with_hub=False)
        for i in range(4):
            world.run(world.client.create(f"/app/f{i}"))
        extra = world.cluster.add_node("extra")
        world.region.add_node(extra)
        world.region.remove_node(extra)
        world.quiesce()
        assert world.region.hub is NULL_HUB
        assert len(world.region.hub.timeline) == 0
