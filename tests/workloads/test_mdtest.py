"""Tests for the mdtest-equivalent workload generator."""

import pytest

from repro.bench.systems import make_testbed
from repro.workloads.mdtest import (
    MdtestConfig,
    build_tree,
    leaf_dirs,
    run_closed_loop,
    run_mdtest,
    run_random_stat,
    spawn_mdtest,
)


@pytest.fixture
def bed():
    return make_testbed("pacon", n_apps=1, nodes_per_app=2,
                        clients_per_node=3)


class TestRunMdtest:
    def test_phases_produce_expected_entries(self, bed):
        config = MdtestConfig(workdir="/app", items_per_client=5)
        result = run_mdtest(bed.env, bed.clients, config)
        bed.quiesce()
        n = len(bed.clients)
        # 5 dirs + 5 files per client on the DFS (plus workspace dirs).
        names = bed.dfs.namespace.readdir("/app")
        assert len(names) == 10 * n
        assert result.total_ops == 15 * n

    def test_throughput_fields_populated(self, bed):
        config = MdtestConfig(workdir="/app", items_per_client=5)
        result = run_mdtest(bed.env, bed.clients, config)
        for phase in ("mkdir", "create", "stat"):
            assert result.ops(phase) > 0
            assert result.phase_elapsed[phase] > 0

    def test_rm_phase(self, bed):
        config = MdtestConfig(workdir="/app", items_per_client=4,
                              phases=("create", "rm"))
        run_mdtest(bed.env, bed.clients, config)
        bed.quiesce()
        assert bed.dfs.namespace.readdir("/app") == []

    def test_local_stat_mode(self, bed):
        config = MdtestConfig(workdir="/app", items_per_client=4,
                              stat_random_global=False)
        result = run_mdtest(bed.env, bed.clients, config)
        assert result.ops("stat") > 0

    def test_stats_per_client_override(self, bed):
        config = MdtestConfig(workdir="/app", items_per_client=4,
                              stats_per_client=10)
        result = run_mdtest(bed.env, bed.clients, config)
        n = len(bed.clients)
        assert result.total_ops == (4 + 4 + 10) * n

    def test_unknown_phase_rejected(self, bed):
        config = MdtestConfig(workdir="/app", phases=("fly",))
        with pytest.raises(ValueError):
            run_mdtest(bed.env, bed.clients, config)

    def test_needs_clients(self, bed):
        with pytest.raises(ValueError):
            run_mdtest(bed.env, [], MdtestConfig())

    def test_unique_dir_per_rank_mode(self, bed):
        config = MdtestConfig(workdir="/app", items_per_client=4,
                              unique_dir_per_rank=True,
                              phases=("create", "stat"))
        result = run_mdtest(bed.env, bed.clients, config)
        bed.quiesce()
        n = len(bed.clients)
        # One subdirectory per rank, each holding that rank's files.
        assert bed.dfs.namespace.readdir("/app") == \
            sorted(f"rank{r}" for r in range(n))
        for r in range(n):
            assert len(bed.dfs.namespace.readdir(f"/app/rank{r}")) == 4
        assert result.ops("create") > 0

    def test_deterministic_given_seed(self):
        def once():
            bed = make_testbed("pacon", n_apps=1, nodes_per_app=2,
                               clients_per_node=3, seed=99)
            config = MdtestConfig(workdir="/app", items_per_client=5)
            r = run_mdtest(bed.env, bed.clients, config)
            return (r.ops("mkdir"), r.ops("create"), r.ops("stat"))

        assert once() == once()


class TestSpawnConcurrent:
    def test_two_instances_interleave(self):
        bed = make_testbed("pacon", n_apps=2, nodes_per_app=2,
                           clients_per_node=2)
        handles = []
        for app in bed.apps:
            config = MdtestConfig(workdir=app.workdir, items_per_client=5)
            handles.append(spawn_mdtest(bed.env, app.clients, config))
        for handle in handles:
            for proc in handle.procs:
                bed.env.run(until=proc)
        results = [h.result() for h in handles]
        assert all(r.ops("create") > 0 for r in results)
        bed.quiesce()
        for app in bed.apps:
            assert len(bed.dfs.namespace.readdir(app.workdir)) == 10 * 4


class TestTreeBuilding:
    def test_build_tree_shape(self, bed):
        leaves = build_tree(bed.env, bed.clients[0], "/app", fanout=3,
                            depth=2)
        assert len(leaves) == 9
        assert leaves == leaf_dirs("/app", 3, 2)
        bed.quiesce()
        assert bed.dfs.namespace.exists("/app/d0/d2")

    def test_leaf_dirs_math(self):
        assert len(leaf_dirs("/r", 5, 3)) == 125
        assert leaf_dirs("/r", 2, 1) == ["/r/d0", "/r/d1"]

    def test_random_stat_throughput(self, bed):
        leaves = build_tree(bed.env, bed.clients[0], "/app", fanout=2,
                            depth=2)
        ops = run_random_stat(bed.env, bed.clients, leaves,
                              stats_per_client=10)
        assert ops > 0

    def test_random_stat_validation(self, bed):
        with pytest.raises(ValueError):
            run_random_stat(bed.env, bed.clients, [], 10)


class TestClosedLoop:
    def test_clock_spans_first_client_in_to_last_client_out(self):
        """Setup is untimed; the clock starts when the first client is
        through the opening barrier (i.e. when the slowest setup ends)
        and stops when the last client leaves the closing one."""
        from repro.sim.core import Environment

        env = Environment()
        setup_time = {0: 1.0, 1: 3.0}
        body_time = {0: 5.0, 1: 2.0}
        left_at = {}

        def setup(rank, client):
            yield env.timeout(setup_time[rank])

        def body(rank, client):
            assert env.now == 3.0  # nobody starts before the barrier opens
            yield env.timeout(body_time[rank])
            left_at[rank] = env.now

        elapsed = run_closed_loop(env, ["c0", "c1"], body, setup)
        assert left_at == {0: 8.0, 1: 5.0}
        assert elapsed == 5.0  # 3.0 -> 8.0: the longer body, not the sum
        assert env.now == 8.0

    def test_needs_a_client(self):
        from repro.sim.core import Environment

        with pytest.raises(ValueError):
            run_closed_loop(Environment(), [], lambda rank, client: iter(()))
