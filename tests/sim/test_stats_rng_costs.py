"""Unit tests for stats, RNG streams, and the cost model."""

import pytest

from repro.obs.sketch import StatsRegistry
from repro.sim.costs import CostModel
from repro.sim.rng import RngStreams


class TestCounter:
    def test_inc_default(self):
        reg = StatsRegistry()
        reg.count("ops")
        reg.count("ops", 4)
        assert reg.counters()["ops"] == 5

    def test_registry_reuses(self):
        reg = StatsRegistry()
        reg.count("x")
        reg.count("x")
        assert reg.counters() == {"x": 2}

    def test_registry_snapshot(self):
        reg = StatsRegistry()
        reg.count("b", 2)
        reg.count("a", 1)
        assert reg.counters() == {"a": 1, "b": 2}


class TestRngStreams:
    def test_same_name_same_stream_object(self):
        rng = RngStreams(seed=1)
        assert rng.stream("a") is rng.stream("a")

    def test_reproducible_across_instances(self):
        a = RngStreams(seed=7).stream("workload").integers(0, 1000, size=10)
        b = RngStreams(seed=7).stream("workload").integers(0, 1000, size=10)
        assert list(a) == list(b)

    def test_streams_independent_of_creation_order(self):
        r1 = RngStreams(seed=7)
        r1.stream("first")
        x1 = r1.stream("target").integers(0, 1 << 30)
        r2 = RngStreams(seed=7)
        x2 = r2.stream("target").integers(0, 1 << 30)
        assert x1 == x2

    def test_different_names_differ(self):
        rng = RngStreams(seed=7)
        a = rng.stream("a").integers(0, 1 << 30, size=8)
        b = rng.stream("b").integers(0, 1 << 30, size=8)
        assert list(a) != list(b)

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).stream("x").integers(0, 1 << 30, size=8)
        b = RngStreams(seed=2).stream("x").integers(0, 1 << 30, size=8)
        assert list(a) != list(b)

    @pytest.mark.parametrize("seed,chaos,mdtest", [
        (3054, [531245696, 349700544, 1005388179], [179582583, 251382445]),
        (7, [657983005, 232557113, 525296859], [449927793, 549364570]),
    ])
    def test_draws_are_pinned(self, seed, chaos, mdtest):
        # The root seed material is built at the first draw; these are
        # the draws an eagerly built ``SeedSequence(seed)`` root gave.
        rng = RngStreams(seed)
        assert list(rng.stream("chaos").integers(0, 1 << 30, size=3)) == chaos
        assert list(rng.stream("mdtest").integers(0, 1 << 30,
                                                   size=2)) == mdtest



class TestCostModel:
    def test_zero_preset_nulls_floats_only(self):
        z = CostModel.zero()
        assert z.net_latency == 0.0
        assert z.mds_op_service == 0.0
        assert z.mds_workers == CostModel().mds_workers

    def test_with_overrides_is_copy(self):
        base = CostModel()
        tweaked = base.with_overrides(mds_op_service=1.0)
        assert tweaked.mds_op_service == 1.0
        assert base.mds_op_service != 1.0

    def test_integer_costs_become_floats(self):
        # Service times reach the kernel as bare-delay sleeps, and only a
        # float is a delay: ``memkv_op=0`` must keep working.
        c = CostModel(memkv_op=0, net_latency=1)
        assert type(c.memkv_op) is float and type(c.net_latency) is float
        assert type(c.with_overrides(mds_op_service=2).mds_op_service) is float
        assert type(c.mds_workers) is int

    def test_disk_transfer_time(self):
        c = CostModel()
        assert c.disk_transfer_time(int(c.disk_bandwidth)) == pytest.approx(1.0)
