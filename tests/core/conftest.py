"""Shared fixtures for Pacon core tests."""

from dataclasses import dataclass
from typing import List

import pytest

from repro.core.client import PaconClient
from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.core.region import ConsistentRegion
from repro.dfs.beegfs import BeeGFS
from repro.sim.core import run_sync
from repro.sim.network import Cluster, Node


@dataclass
class World:
    """One assembled Pacon world for a test."""

    cluster: Cluster
    dfs: BeeGFS
    deployment: PaconDeployment
    region: ConsistentRegion
    nodes: List[Node]
    client: PaconClient

    def run(self, gen, label: str = "test"):
        return run_sync(self.cluster.env, gen, label=label)

    def quiesce(self):
        self.deployment.quiesce_sync(self.region)

    def new_client(self, node_index: int = 0):
        return self.deployment.client(self.region, self.nodes[node_index])


def make_world(workspace: str = "/app", n_nodes: int = 4,
               config: PaconConfig = None, seed: int = 7) -> World:
    cluster = Cluster(seed=seed)
    dfs = BeeGFS(cluster)
    nodes = [cluster.add_node(f"client{i}") for i in range(n_nodes)]
    deployment = PaconDeployment(cluster, dfs)
    if config is None:
        config = PaconConfig(workspace=workspace)
    region = deployment.create_region(config, nodes)
    client = deployment.client(region, nodes[0])
    return World(cluster=cluster, dfs=dfs, deployment=deployment,
                 region=region, nodes=nodes, client=client)


def make_paused_world(config, n_nodes=2, seed=7):
    """A world whose commit processes have NOT started: published ops
    accumulate in the queues, so a later start drains them as one batch."""
    cluster = Cluster(seed=seed)
    dfs = BeeGFS(cluster)
    nodes = [cluster.add_node(f"client{i}") for i in range(n_nodes)]
    deployment = PaconDeployment(cluster, dfs)
    region = deployment.create_region(config, nodes, start_commit=False)
    client = deployment.client(region, nodes[0])
    return cluster, dfs, deployment, region, client


def make_two_region_world(n_nodes_each=2):
    """Two applications with share-friendly (0o755) workspace permissions."""
    from repro.core.permissions import PermissionSpec

    cluster = Cluster(seed=11)
    dfs = BeeGFS(cluster)
    nodes_a = [cluster.add_node(f"a{i}") for i in range(n_nodes_each)]
    nodes_b = [cluster.add_node(f"b{i}") for i in range(n_nodes_each)]
    deployment = PaconDeployment(cluster, dfs)
    region_a = deployment.create_region(
        PaconConfig(workspace="/appA", uid=1001, gid=1001,
                    permissions=PermissionSpec(mode=0o755, uid=1001,
                                               gid=1001)), nodes_a)
    region_b = deployment.create_region(
        PaconConfig(workspace="/appB", uid=1002, gid=1002,
                    permissions=PermissionSpec(mode=0o755, uid=1002,
                                               gid=1002)), nodes_b)
    client_a = deployment.client(region_a, nodes_a[0])
    client_b = deployment.client(region_b, nodes_b[0])
    return cluster, dfs, deployment, region_a, region_b, client_a, client_b


@pytest.fixture
def world() -> World:
    return make_world()
