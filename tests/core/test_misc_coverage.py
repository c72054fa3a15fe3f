"""Coverage for smaller behaviours: periodic checkpoints started by the
application, kernel error handling."""

import pytest

from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.dfs.beegfs import BeeGFS
from repro.sim.core import Environment, run_sync
from repro.sim.network import Cluster


class TestConfiguredCheckpointInterval:
    def test_periodic_checkpoints_run_automatically(self):
        cluster = Cluster(seed=3)
        dfs = BeeGFS(cluster)
        nodes = [cluster.add_node("n0")]
        pacon = PaconDeployment(cluster, dfs)
        region = pacon.create_region(PaconConfig(workspace="/app"), nodes)
        ckpt = pacon.checkpointer(region)
        cluster.env.process(ckpt.run(5e-3))
        client = pacon.client(region, nodes[0])
        run_sync(cluster.env, client.create("/app/f"))
        pacon.quiesce_sync(region)
        cluster.env.run(until=cluster.env.now + 20e-3)
        assert ckpt.taken >= 3
        assert ckpt.latest.entries >= 1
        with pytest.raises(ValueError):
            next(ckpt.run(0))


class TestKernelErrorHandling:
    def test_a_process_error_propagates_and_run_carries_on(self):
        env = Environment()

        def bad():
            yield 1.0
            raise RuntimeError("inside process")

        def good():
            yield 2.0
            return "survived"

        p_bad = env.process(bad())
        p_good = env.process(good())
        with pytest.raises(RuntimeError, match="inside process"):
            env.run()
        assert env.now == 1.0 and p_good.is_alive
        env.run()
        assert p_good.value == "survived"
        assert isinstance(p_bad.exception, RuntimeError)

    def test_uncaught_process_error_propagates(self):
        env = Environment()

        def bad():
            yield 1.0
            raise RuntimeError("boom")

        env.process(bad())
        with pytest.raises(RuntimeError, match="boom"):
            env.run()

    def test_env_condition_factories(self):
        env = Environment()

        def after(delay, value):
            yield delay
            return value

        def proc():
            values = yield env.all_of([env.process(after(2.0, "a")),
                                       env.process(after(1.0, "b"))])
            return values, env.now

        assert run_sync(env, proc()) == (["a", "b"], 2.0)
