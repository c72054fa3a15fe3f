"""Per-operation spans: pairing, exception handling, zero-overhead path."""

import pytest

from repro.dfs.errors import FileNotFound

from tests.obs.conftest import make_observed_world


def _workload(client, tag):
    yield from client.mkdir(f"/app/{tag}")
    for j in range(3):
        path = f"/app/{tag}/f{j}"
        yield from client.create(path)
        yield from client.getattr(path)


class TestSpans:
    def test_ops_emit_paired_spans(self, observed):
        observed.run(_workload(observed.client, "d0"))
        tracer = observed.hub.tracer
        spans = tracer.spans()
        # mkdir + 3x(create, getattr) = 7 complete spans.
        assert len(spans) == 7
        for start, end, detail in spans.values():
            assert 0.0 <= start <= end
        starts = list(tracer.events(kind="op.start"))
        ends = list(tracer.events(kind="op.end"))
        assert len(starts) == len(ends) == 7

    def test_end_event_carries_outcome_and_classification(self, observed):
        observed.run(observed.client.mkdir("/app/d"))
        (end,) = observed.hub.tracer.events(kind="op.end")
        assert "[ok]" in end.detail
        # Table-I tags for mkdir: put / async / independent commit.
        assert "cache=put" in end.detail
        assert "comm=async" in end.detail
        assert "commit=indep" in end.detail

    def test_span_closes_when_op_raises(self, observed):
        with pytest.raises(FileNotFound):
            observed.run(observed.client.getattr("/app/nope"))
        tracer = observed.hub.tracer
        ends = list(tracer.events(kind="op.end"))
        assert len(ends) == 1
        assert "[FileNotFound]" in ends[0].detail
        # The span is paired even though the generator raised.
        assert len(tracer.spans()) == 1
        # And the hub counted it as an error, not a success.
        counters = observed.hub.stats.counters()
        assert counters["client.op.getattr.errors"] == 1

    def test_latency_histogram_fed_per_op_type(self, observed):
        observed.run(_workload(observed.client, "d0"))
        hists = observed.hub.stats.histograms()
        assert hists["client.op.mkdir.latency"]["count"] == 1
        assert hists["client.op.create.latency"]["count"] == 3
        assert hists["client.op.getattr.latency"]["count"] == 3
        assert hists["client.op.create.latency"]["mean"] > 0


class TestZeroOverhead:
    def test_disabled_returns_raw_generator(self):
        plain = make_observed_world(with_hub=False)
        gen = plain.client.mkdir("/app/x")
        # NULL_TRACER/NULL_HUB fast path: the decorator hands back the
        # undecorated generator (mkdir's is _create_entry's own), not the
        # _spanned wrapper.
        assert gen.gi_code.co_name == "_create_entry"
        gen.close()

    def test_enabled_wraps_in_span(self, observed):
        gen = observed.client.mkdir("/app/x")
        assert gen.gi_code.co_name == "_spanned"
        gen.close()

    def test_simulated_time_identical_with_and_without_observability(self):
        def drive(world):
            for i, client in enumerate(world.clients):
                world.run(_workload(client, f"d{i}"))
            world.quiesce()
            return world.env.now

        t_plain = drive(make_observed_world(seed=11, with_hub=False))
        t_obs = drive(make_observed_world(seed=11, with_hub=True))
        assert t_plain == t_obs
