"""Tests for the consistency observatory: the quantile sketch, the
staleness/visibility lens, the SLO engine, and the v3 schema."""

import json
import random

import pytest

from repro.obs import schema
from repro.obs.sketch import QuantileSketch
from repro.obs.slo import (BurnRateObjective, ErrorRatioObjective,
                           LatencyObjective, Policy, StalenessObjective,
                           default_policy, get_policy)
from tests.obs.conftest import make_observed_world


# --------------------------------------------------------------- sketch

class TestQuantileSketch:
    def test_percentiles_track_sorted_reference(self):
        rng = random.Random(0xC0FFEE)
        values = [rng.lognormvariate(0.0, 2.0) for _ in range(5000)]
        sketch = QuantileSketch("t")
        for v in values:
            sketch.observe(v)
        ordered = sorted(values)
        for q in (10, 50, 90, 95, 99):
            exact = ordered[min(len(ordered) - 1,
                                int(q / 100.0 * len(ordered)))]
            approx = sketch.percentile(q)
            # One log bucket of slack either way (growth 1.05), doubled
            # for the rank-interpolation difference at the reference.
            assert approx == pytest.approx(exact, rel=0.10)

    def test_count_sum_min_max_exact(self):
        sketch = QuantileSketch()
        values = [3.0, 1.5, 9.25, 0.125]
        for v in values:
            sketch.observe(v)
        assert sketch.count == len(values)
        assert sketch.total == pytest.approx(sum(values))
        assert sketch.min == min(values)
        assert sketch.max == max(values)
        assert sketch.mean() == pytest.approx(sum(values) / len(values))

    def test_zero_and_negative_land_in_zero_bucket(self):
        sketch = QuantileSketch()
        sketch.observe(0.0)
        sketch.observe(-1.0)
        assert sketch.zero_count == 2
        assert len(sketch) == 0  # no log buckets allocated
        assert sketch.percentile(50) == 0.0

    def test_merge_associative_and_commutative(self):
        rng = random.Random(42)
        parts = []
        for _ in range(3):
            sk = QuantileSketch()
            for _ in range(200):
                sk.observe(rng.expovariate(1.0))
            parts.append(sk)

        def combine(order):
            out = QuantileSketch()
            for i in order:
                out.merge(parts[i])
            return out.export()

        assert combine([0, 1, 2]) == combine([2, 0, 1]) == combine([1, 2, 0])

    def test_merge_growth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QuantileSketch(growth=1.05).merge(QuantileSketch(growth=1.1))

    def test_export_round_trip(self):
        sketch = QuantileSketch("rt")
        for v in (0.0, 0.5, 1.0, 2.0, 4.0) * 3:
            sketch.observe(v)
        doc = json.loads(json.dumps(sketch.export()))
        back = QuantileSketch.from_export(doc, "rt")
        assert back.export() == sketch.export()
        assert back.percentile(95) == sketch.percentile(95)

    def test_summary_shares_histogram_keys(self):
        assert set(QuantileSketch().summary()) == \
            {"count", "mean", "p50", "p95", "p99", "max"}

    def test_constant_memory(self):
        sketch = QuantileSketch()
        rng = random.Random(1)
        for _ in range(20000):
            sketch.observe(rng.lognormvariate(0.0, 3.0))
        # Buckets span the observed range at O(log(max/min)) — far below
        # one bucket per sample.
        assert len(sketch) < 600


# ---------------------------------------------------------- staleness lens

class TestStalenessLens:
    def test_reads_tagged_by_tier_and_op(self):
        world = make_observed_world()
        for i in range(4):
            world.run(world.client.create(f"/app/f{i}"))
        for i in range(4):
            world.run(world.client.stat(f"/app/f{i}"))
        world.quiesce()
        world.hub.stop_samplers()
        cons = world.hub.consistency_snapshot()
        assert sum(cons["reads"].values()) > 0
        assert set(cons["reads"]) <= {"private", "shared", "mds"}
        assert cons["staleness"]["age"]["count"] == \
            sum(cons["reads"].values())
        # Per-tier:op sketches exist for every read tier.
        tiers = {name.split("[", 1)[1].split(":", 1)[0]
                 for name in cons["sketches"]
                 if name.startswith("consistency.staleness.age[")}
        assert tiers == set(cons["reads"])

    def test_visibility_recorded_per_committed_op(self):
        world = make_observed_world()
        for i in range(5):
            world.run(world.client.create(f"/app/v{i}"))
        world.quiesce()
        world.hub.stop_samplers()
        cons = world.hub.consistency_snapshot()
        committed = world.region.ops_committed
        assert cons["visibility"]["committed"]["count"] == committed
        assert cons["visibility"]["global"]["count"] == committed
        # Global visibility includes the post-commit cache flip, so it
        # can never beat committed visibility.
        assert cons["visibility"]["global"]["p99"] >= \
            cons["visibility"]["committed"]["p99"]

    def test_pending_mutations_drain_to_zero(self):
        world = make_observed_world()
        for i in range(5):
            world.run(world.client.create(f"/app/p{i}"))
        world.quiesce()
        world.hub.stop_samplers()
        assert world.hub.consistency_snapshot()["pending_mutations"] == 0


# ------------------------------------------------------------- zero cost

class TestZeroCostWhenOff:
    def test_uninstrumented_run_allocates_no_sketch_or_slo_state(
            self, monkeypatch):
        from repro.obs import sketch as stats_mod

        def boom(*a, **kw):
            raise AssertionError("sketch allocated on an uninstrumented"
                                 " run")

        monkeypatch.setattr(stats_mod.StatsRegistry, "sketch", boom)
        monkeypatch.setattr(QuantileSketch, "__init__", boom)
        world = make_observed_world(with_hub=False)
        for i in range(5):
            world.run(world.client.create(f"/app/off{i}"))
            world.run(world.client.stat(f"/app/off{i}"))
        world.quiesce()
        assert world.client.ops > 0

    def test_null_hub_consistency_recorders_discard(self):
        from repro.obs.hub import NULL_HUB
        NULL_HUB.observe_staleness("shared", "stat", 1.0, 2)
        NULL_HUB.observe_visibility("committed", "create", 1.0)
        assert NULL_HUB.stats.counters() == {}


# ------------------------------------------------------------ slo engine

def _doc(histograms=None, counters=None, series=None, consistency=None):
    return {"histograms": histograms or {}, "counters": counters or {},
            "series": series or {}, "consistency": consistency or {}}


class TestSloEngine:
    def test_latency_objective_pass_and_fail(self):
        obj = LatencyObjective("lat", "commit.latency", "p99", 1.0)
        doc = _doc(histograms={"commit.latency": {"count": 10, "p99": 0.5}})
        assert obj.evaluate(doc).ok
        doc["histograms"]["commit.latency"]["p99"] = 2.0
        verdict = obj.evaluate(doc)
        assert not verdict.ok and verdict.measured == 2.0

    def test_latency_objective_abstains_when_windowed(self):
        obj = LatencyObjective("lat", "commit.latency", "p99", 1.0)
        assert obj.evaluate(_doc(), window=(0.0, 1.0)) is None

    def test_staleness_whole_run_reads_consistency_section(self):
        obj = StalenessObjective("st", bound=0.5)
        doc = _doc(consistency={"staleness": {
            "age": {"count": 3, "p99": 0.25}}})
        assert obj.evaluate(doc).ok
        doc["consistency"]["staleness"]["age"]["p99"] = 0.75
        assert not obj.evaluate(doc).ok

    def test_staleness_windowed_max_vs_final(self):
        series = {"consistency.pending_age[r]": {
            "t": [0.0, 1.0, 2.0], "v": [0.0, 5.0, 0.0]}}
        doc = _doc(series=series)
        worst = StalenessObjective("w", bound=1.0, mode="max")
        final = StalenessObjective("f", bound=1.0, mode="final")
        assert not worst.evaluate(doc, window=(0.0, 2.0)).ok
        assert final.evaluate(doc, window=(0.0, 2.0)).ok
        # Window clipping: exclude the spike and max passes too.
        assert worst.evaluate(doc, window=(1.5, 2.0)).ok

    def test_error_ratio_counts_per_op_errors(self):
        obj = ErrorRatioObjective("err", max_ratio=0.1)
        counters = {"client.ops": 100, "client.op.stat.errors": 5,
                    "client.op.create.errors": 4}
        assert obj.evaluate(_doc(counters=counters)).ok
        counters["client.op.stat.errors"] = 50
        assert not obj.evaluate(_doc(counters=counters)).ok

    def test_burn_rate_needs_all_windows_burning(self):
        # Early violation that fully recovers: the long window burns but
        # the short (most recent 10%) window is clean -> no page.
        t = [i / 10.0 for i in range(40)]
        v = [2.0] * 10 + [0.0] * 30
        doc = _doc(series={"consistency.pending_age[r]": {"t": t, "v": v}})
        obj = BurnRateObjective("burn", "consistency.pending_age",
                                threshold=1.0, budget=0.05)
        assert obj.evaluate(doc).ok
        # Still violating at the end: every window burns -> fail.
        doc2 = _doc(series={"consistency.pending_age[r]": {
            "t": t, "v": [2.0] * 40}})
        assert not obj.evaluate(doc2).ok

    def test_policy_skips_abstaining_objectives(self):
        policy = Policy("p", [
            LatencyObjective("lat", "commit.latency", "p99", 1.0),
            StalenessObjective("st", bound=1.0),
        ])
        result = policy.evaluate(_doc(), window=(0.0, 1.0))
        assert [v.name for v in result.verdicts] == ["st"]

    def test_default_policy_passes_on_clean_run(self):
        world = make_observed_world()
        for i in range(5):
            world.run(world.client.create(f"/app/s{i}"))
        world.quiesce()
        world.hub.stop_samplers()
        doc = world.hub.export()
        assert doc["slo"]["verdict"] == "pass"
        result = default_policy().evaluate(doc)
        assert result.passed
        assert result.to_doc() == doc["slo"]

    def test_get_policy_rejects_unknown(self):
        with pytest.raises(ValueError):
            get_policy("no-such-policy")


# ------------------------------------------------------------- v3 schema

def exported_doc():
    world = make_observed_world()
    for i in range(5):
        world.run(world.client.create(f"/app/f{i}"))
    world.quiesce()
    world.hub.stop_samplers()
    return world.hub.export()


class TestSchemaV3:
    def test_v3_export_conforms(self):
        assert schema.validate(exported_doc()) == []

    def test_v3_round_trips_through_json(self):
        assert schema.validate(json.loads(json.dumps(exported_doc()))) == []

    def test_v3_requires_consistency_and_slo(self):
        doc = exported_doc()
        del doc["consistency"]
        assert any("consistency" in p for p in schema.validate(doc))
        doc = exported_doc()
        del doc["slo"]
        assert any("slo" in p for p in schema.validate(doc))

    def test_missing_consistency_field_flagged(self):
        doc = exported_doc()
        del doc["consistency"]["staleness_p99"]
        assert any("staleness_p99" in p for p in schema.validate(doc))

    def test_bad_slo_verdict_flagged(self):
        doc = exported_doc()
        doc["slo"]["verdict"] = "maybe"
        assert any("verdict" in p for p in schema.validate(doc))

    def test_same_seed_exports_byte_identical(self):
        a = make_observed_world(seed=11)
        b = make_observed_world(seed=11)
        for world in (a, b):
            for i in range(4):
                world.run(world.client.create(f"/app/d{i}"))
            world.quiesce()
            world.hub.stop_samplers()
        assert a.hub.to_json() == b.hub.to_json()
