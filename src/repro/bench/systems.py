"""System-under-test builders shared by all experiment drivers.

``make_testbed`` assembles one of the three evaluated systems — native
BeeGFS, IndexFS-over-BeeGFS (co-located with clients, as §IV deploys it),
or Pacon-over-BeeGFS — on one simulated cluster with the same fabric and
cost model, mirroring the paper's testbed topology (client nodes plus a
1-MDS/3-data BeeGFS cluster).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.baselines.indexfs import IndexFS
from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment
from repro.core.permissions import PermissionSpec
from repro.dfs.beegfs import BeeGFS
from repro.sim.costs import CostModel
from repro.sim.network import Cluster, Node
from repro.sim.rng import DEFAULT_SEED
from repro.workloads.mdtest import MdtestConfig, run_mdtest

__all__ = ["AppHandle", "TestBed", "make_testbed", "create_throughput",
           "SYSTEMS", "DEFAULT_SEED"]

SYSTEMS = ("beegfs", "indexfs", "pacon")


@dataclass
class AppHandle:
    """One application: its workspace, nodes, and per-rank clients."""

    workdir: str
    nodes: List[Node]
    clients: List[Any]
    region: Any = None          # ConsistentRegion for Pacon, else None


@dataclass
class TestBed:
    """A deployed system plus its applications."""

    system: str
    cluster: Cluster
    apps: List[AppHandle]
    dfs: Optional[BeeGFS] = None
    indexfs: Optional[IndexFS] = None
    pacon: Optional[PaconDeployment] = None

    @property
    def env(self):
        return self.cluster.env

    @property
    def clients(self) -> List[Any]:
        """All clients of the first app (single-app convenience)."""
        return self.apps[0].clients

    @property
    def app(self) -> AppHandle:
        return self.apps[0]

    def quiesce(self) -> None:
        """Wait for Pacon's asynchronous commits (no-op elsewhere)."""
        if self.pacon is not None:
            for app in self.apps:
                if app.region is not None:
                    self.pacon.quiesce_sync(app.region)


def make_testbed(system: str, n_apps: int = 1, nodes_per_app: int = 2,
                 clients_per_node: int = 20,
                 workdir_base: str = "/app",
                 costs: Optional[CostModel] = None,
                 seed: int = DEFAULT_SEED,
                 n_mds: int = 1,
                 hub: Optional[Any] = None,
                 commit_batch_size: Optional[int] = None) -> TestBed:
    """Build one system with ``n_apps`` applications.

    Application ``k`` gets workspace ``{workdir_base}{k}`` (or exactly
    ``workdir_base`` when there is a single app), ``nodes_per_app``
    dedicated client nodes, and ``clients_per_node`` client processes per
    node — the paper's mdtest geometry.

    Pass a :class:`repro.obs.MetricsHub` as ``hub`` to instrument the
    Pacon deployment (regions get the hub + its tracer, and gauge samplers
    start if the hub has a sample interval).
    The baseline systems accept the argument but are not instrumented.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}; pick from {SYSTEMS}")
    cluster = Cluster(costs=costs, seed=seed)
    workdirs = ([workdir_base] if n_apps == 1
                else [f"{workdir_base}{k}" for k in range(n_apps)])
    app_nodes = [
        [cluster.add_node(f"client{k}_{i}") for i in range(nodes_per_app)]
        for k in range(n_apps)
    ]
    all_nodes = [node for nodes in app_nodes for node in nodes]
    bed = TestBed(system=system, cluster=cluster, apps=[])

    if system == "beegfs":
        bed.dfs = BeeGFS(cluster, n_mds=n_mds)
        for k, workdir in enumerate(workdirs):
            bed.dfs.mkdir_sync(workdir, uid=1000 + k, gid=1000 + k)
            clients = [bed.dfs.client(node, uid=1000 + k, gid=1000 + k)
                       for node in app_nodes[k]
                       for _ in range(clients_per_node)]
            bed.apps.append(AppHandle(workdir=workdir, nodes=app_nodes[k],
                                      clients=clients))
        return bed

    if system == "indexfs":
        # Co-located with the client nodes; LevelDB tables live on BeeGFS
        # (captured by the LSM cost constants), so no separate MDS is
        # simulated — the data servers exist for fairness of node counts.
        bed.indexfs = IndexFS(cluster, all_nodes)
        for k, workdir in enumerate(workdirs):
            bed.indexfs.admin_mkdir(workdir, uid=1000 + k, gid=1000 + k)
            clients = [bed.indexfs.client(node, uid=1000 + k, gid=1000 + k)
                       for node in app_nodes[k]
                       for _ in range(clients_per_node)]
            bed.apps.append(AppHandle(workdir=workdir, nodes=app_nodes[k],
                                      clients=clients))
        return bed

    # pacon
    bed.dfs = BeeGFS(cluster, n_mds=n_mds)
    bed.pacon = PaconDeployment(cluster, bed.dfs)
    commit_kwargs = ({} if commit_batch_size is None
                     else {"commit_batch_size": commit_batch_size})
    for k, workdir in enumerate(workdirs):
        config = PaconConfig(
            workspace=workdir, uid=1000 + k, gid=1000 + k,
            permissions=PermissionSpec(mode=0o755, uid=1000 + k,
                                       gid=1000 + k),
            **commit_kwargs)
        region = bed.pacon.create_region(config, app_nodes[k])
        if hub is not None:
            hub.attach_region(region)
        clients = [bed.pacon.client(region, node)
                   for node in app_nodes[k]
                   for _ in range(clients_per_node)]
        bed.apps.append(AppHandle(workdir=workdir, nodes=app_nodes[k],
                                  clients=clients, region=region))
    return bed


def create_throughput(system: str, nodes: int, cpn: int, items: int,
                      **testbed_kw: Any) -> float:
    """Creates/second of one ``nodes`` x ``cpn``-client mdtest create phase
    against a fresh ``system`` testbed (``testbed_kw`` as `make_testbed`)."""
    bed = make_testbed(system, n_apps=1, nodes_per_app=nodes,
                       clients_per_node=cpn, **testbed_kw)
    config = MdtestConfig(workdir="/app", items_per_client=items,
                          phases=("create",))
    return run_mdtest(bed.env, bed.clients, config).ops("create")
