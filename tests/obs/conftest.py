"""Fixtures for the observability tests: Pacon worlds with a hub attached."""

from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro.core.client import PaconClient
from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.core.region import ConsistentRegion
from repro.dfs.beegfs import BeeGFS
from repro.obs.hub import MetricsHub
from repro.sim.core import run_sync
from repro.sim.network import Cluster, Node
from repro.sim.trace import Tracer


@dataclass
class ObservedWorld:
    cluster: Cluster
    dfs: BeeGFS
    deployment: PaconDeployment
    region: ConsistentRegion
    nodes: List[Node]
    clients: List[PaconClient]
    hub: Optional[MetricsHub]

    @property
    def env(self):
        return self.cluster.env

    @property
    def client(self) -> PaconClient:
        return self.clients[0]

    def run(self, gen, label: str = "test"):
        return run_sync(self.env, gen, label=label)

    def quiesce(self):
        self.deployment.quiesce_sync(self.region)


def make_observed_world(seed: int = 7, n_nodes: int = 2,
                        clients_per_node: int = 1,
                        with_hub: bool = True,
                        with_tracer: bool = True,
                        sample_interval: Optional[float] = 100e-6,
                        start_commit: bool = True) -> ObservedWorld:
    cluster = Cluster(seed=seed)
    dfs = BeeGFS(cluster)
    nodes = [cluster.add_node(f"client{i}") for i in range(n_nodes)]
    deployment = PaconDeployment(cluster, dfs)
    region = deployment.create_region(PaconConfig(workspace="/app"), nodes,
                                      start_commit=start_commit)
    hub = None
    if with_hub:
        hub = MetricsHub(tracer=Tracer() if with_tracer else None,
                         sample_interval=sample_interval)
        hub.attach_region(region)
    clients = [deployment.client(region, node) for node in nodes
               for _ in range(clients_per_node)]
    return ObservedWorld(cluster=cluster, dfs=dfs, deployment=deployment,
                         region=region, nodes=nodes, clients=clients,
                         hub=hub)


@pytest.fixture
def observed() -> ObservedWorld:
    return make_observed_world()
