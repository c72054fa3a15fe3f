"""Export-safety regressions: Series caps, trace drops, stable hashing."""

from repro.obs.sketch import Series, StatsRegistry
from repro.sim import rng
from repro.sim.rng import stable_hash
from repro.sim.trace import Tracer


class TestSeries:
    def test_append_and_export(self):
        s = Series("q")
        s.append(0.0, 1)
        s.append(1.0, 2.5)
        assert len(s) == 2
        assert s.points() == [(0.0, 1.0), (1.0, 2.5)]
        assert s.last() == (1.0, 2.5)
        assert s.export() == {"t": [0.0, 1.0], "v": [1.0, 2.5],
                              "dropped": 0}

    def test_cap_counts_drops(self):
        s = Series("q", max_points=2)
        for i in range(5):
            s.append(float(i), i)
        assert len(s) == 2
        assert s.dropped == 3
        assert s.export()["dropped"] == 3

    def test_registry_interns_series(self):
        reg = StatsRegistry()
        assert reg.series("a") is reg.series("a")
        reg.series("b").append(0.0, 1.0)
        out = reg.series_export()
        assert list(out) == ["a", "b"]
        assert out["b"]["v"] == [1.0]


class TestTracerDrops:
    def test_render_surfaces_dropped_count(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.emit(float(i), "actor", "op.start", f"e{i}", op_id=i)
        assert len(tracer) == 2
        assert tracer.dropped == 3
        rendered = tracer.render()
        assert "3 events dropped (capacity 2)" in rendered

    def test_render_without_drops_has_no_notice(self):
        tracer = Tracer()
        tracer.emit(0.0, "actor", "op.start", "e0", op_id=1)
        assert "dropped" not in tracer.render()


class TestStableHash:
    def test_deterministic_reference_values(self):
        # FNV-1a; must never change — fsync shadow-file names depend on it.
        assert stable_hash("abc") == 230203133
        assert stable_hash("/app/f0") == 384400878

    def test_public_export(self):
        assert "stable_hash" in rng.__all__
        # Backwards-compat alias for pre-rename internal callers.
        assert rng._stable_hash is stable_hash
