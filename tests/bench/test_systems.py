"""Tests for the testbed builders shared by all experiment drivers."""

import pytest

from repro.bench.systems import SYSTEMS, make_testbed
from repro.sim.core import run_sync


class TestMakeTestbed:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            make_testbed("lustre")

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_single_app_geometry(self, system):
        bed = make_testbed(system, n_apps=1, nodes_per_app=2,
                           clients_per_node=3)
        assert len(bed.apps) == 1
        assert len(bed.clients) == 6
        assert bed.app.workdir == "/app"

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_multi_app_geometry(self, system):
        bed = make_testbed(system, n_apps=3, nodes_per_app=2,
                           clients_per_node=2)
        assert [app.workdir for app in bed.apps] == ["/app0", "/app1",
                                                     "/app2"]
        # Apps get disjoint node sets.
        all_nodes = [n for app in bed.apps for n in app.nodes]
        assert len(all_nodes) == len(set(all_nodes)) == 6

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_workdir_usable_immediately(self, system):
        bed = make_testbed(system, n_apps=1, nodes_per_app=1,
                           clients_per_node=1)
        client = bed.clients[0]
        inode = run_sync(bed.env, client.create("/app/probe"))
        assert inode.is_file

    def test_pacon_regions_per_app(self):
        bed = make_testbed("pacon", n_apps=2, nodes_per_app=2,
                           clients_per_node=1)
        assert bed.apps[0].region is not bed.apps[1].region
        assert bed.apps[0].region.workspace == "/app0"

    def test_indexfs_colocated_with_all_client_nodes(self):
        bed = make_testbed("indexfs", n_apps=2, nodes_per_app=2,
                           clients_per_node=1)
        assert len(bed.indexfs.servers) == 4

    def test_beegfs_topology(self):
        bed = make_testbed("beegfs", n_apps=1, nodes_per_app=2,
                           clients_per_node=1, n_mds=2)
        assert len(bed.dfs.mds_servers) == 2
        assert len(bed.dfs.data_servers) == 3

    def test_quiesce_lands_pacon_commits(self):
        bed = make_testbed("pacon", n_apps=1, nodes_per_app=2,
                           clients_per_node=2)
        run_sync(bed.env, bed.clients[0].create("/app/f"))
        bed.quiesce()
        assert bed.dfs.namespace.exists("/app/f")

    def test_quiesce_noop_elsewhere(self):
        bed = make_testbed("beegfs", n_apps=1, nodes_per_app=1,
                           clients_per_node=1)
        bed.quiesce()  # must not raise

    def test_per_app_uids_differ(self):
        bed = make_testbed("beegfs", n_apps=2, nodes_per_app=1,
                           clients_per_node=1)
        assert bed.apps[0].clients[0].uid != bed.apps[1].clients[0].uid
