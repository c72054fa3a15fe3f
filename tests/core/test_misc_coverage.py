"""Coverage for smaller behaviours: periodic checkpoints wired through
config, recovery options, kernel error handling, cost presets."""

import pytest

from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.core.failure import fail_node, recover_node
from repro.dfs.beegfs import BeeGFS
from repro.sim.core import Environment, run_sync
from repro.sim.costs import CostModel
from repro.sim.network import Cluster


class TestConfiguredCheckpointInterval:
    def test_periodic_checkpoints_run_automatically(self):
        cluster = Cluster(seed=3)
        dfs = BeeGFS(cluster)
        nodes = [cluster.add_node("n0")]
        pacon = PaconDeployment(cluster, dfs)
        region = pacon.create_region(
            PaconConfig(workspace="/app", checkpoint_interval=5e-3), nodes)
        client = pacon.client(region, nodes[0])
        run_sync(cluster.env, client.create("/app/f"))
        pacon.quiesce_sync(region)
        cluster.env.run(until=cluster.env.now + 20e-3)
        assert region.checkpoint_manager.taken >= 3
        latest = region.checkpoint_manager.latest
        assert latest.entries >= 1

    def test_no_interval_no_manager(self):
        cluster = Cluster(seed=3)
        dfs = BeeGFS(cluster)
        nodes = [cluster.add_node("n0")]
        pacon = PaconDeployment(cluster, dfs)
        region = pacon.create_region(PaconConfig(workspace="/app"), nodes)
        assert not hasattr(region, "checkpoint_manager")


class TestRecoveryOptions:
    def test_recover_without_commit_restart(self):
        cluster = Cluster(seed=3)
        dfs = BeeGFS(cluster)
        nodes = [cluster.add_node(f"n{i}") for i in range(2)]
        pacon = PaconDeployment(cluster, dfs)
        region = pacon.create_region(PaconConfig(workspace="/app"), nodes)
        fail_node(region, nodes[1])
        recover_node(region, nodes[1], restart_commit=False)
        cluster.env.run()
        dead = [cp for cp in region.commit_processes
                if cp.node is nodes[1]][0]
        assert not dead._process.is_alive


class TestKernelErrorHandling:
    def test_catch_process_errors_keeps_sim_alive(self):
        env = Environment(catch_process_errors=True)

        def bad():
            yield 1.0
            raise RuntimeError("inside process")

        def good():
            yield 2.0
            return "survived"

        p_bad = env.process(bad())
        p_good = env.process(good())
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


class TestSystemsOptions:
    def test_parent_check_flag_reaches_region(self):
        from repro.bench.systems import make_testbed

        bed = make_testbed("pacon", n_apps=1, nodes_per_app=1,
                           clients_per_node=1, parent_check=False)
        assert bed.app.region.config.parent_check is False

    def test_split_threshold_flag(self):
        from repro.bench.systems import make_testbed

        bed = make_testbed("indexfs", n_apps=1, nodes_per_app=2,
                           clients_per_node=1, split_threshold=5)
        assert bed.indexfs.split_threshold == 5
