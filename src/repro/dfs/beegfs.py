"""BeeGFS-like deployment: MDS + data servers wired onto a cluster.

Defaults mirror the paper's testbed: one metadata server (NVMe-class
service times) and three data servers.  With ``n_mds > 1`` directories are
sharded across metadata servers by hashing the directory path — the same
per-directory ownership BeeGFS metadata targets use — so multi-MDS scaling
experiments are possible (used by ablations).
"""

from __future__ import annotations


from repro.dfs.client import DFSClient
from repro.dfs.mds import MetadataServer
from repro.dfs.namespace import Namespace
from repro.dfs.storage import DataServer
from repro.kvstore.dht import stable_hash64
from repro.sim.network import Cluster, Node

__all__ = ["BeeGFS"]


class BeeGFS:
    """A deployed DFS instance on a :class:`~repro.sim.network.Cluster`."""

    def __init__(self, cluster: Cluster, n_mds: int = 1, n_data: int = 3):
        if n_mds < 1 or n_data < 1:
            raise ValueError("need at least one MDS and one data server")
        self.cluster = cluster
        self.namespace = Namespace()
        mds_nodes = [cluster.add_node(f"mds{i}") for i in range(n_mds)]
        data_nodes = [cluster.add_node(f"data{i}") for i in range(n_data)]
        self.mds_servers = [
            MetadataServer(cluster, node, self.namespace, name=f"mds{i}")
            for i, node in enumerate(mds_nodes)
        ]
        self.data_servers = [
            DataServer(cluster, node, name=f"data{i}")
            for i, node in enumerate(data_nodes)
        ]

    # -- placement -------------------------------------------------------
    def mds_for(self, dir_path: str) -> MetadataServer:
        """Owning MDS for a directory (all ops on entries in it go there).

        ``dir_path`` is already normalized by the calling client.
        """
        if len(self.mds_servers) == 1:
            return self.mds_servers[0]
        return self.mds_servers[stable_hash64(dir_path)
                                % len(self.mds_servers)]

    def data_server_for(self, ino: int, chunk: int) -> DataServer:
        """Round-robin striping, rotated per inode."""
        return self.data_servers[(ino + chunk) % len(self.data_servers)]

    # -- clients ------------------------------------------------------------
    def client(self, node: Node, uid: int = 1000, gid: int = 1000) -> DFSClient:
        return DFSClient(self, node, uid=uid, gid=gid)

    # -- test/benchmark convenience -------------------------------------------
    def mkdir_sync(self, path: str, uid: int = 0, gid: int = 0) -> None:
        """Administrative mkdir (mode 0o777) applied directly to the
        namespace.

        Used by experiment setup (e.g. pre-creating application working
        directories as the cluster admin would) without consuming
        simulated time.
        """
        self.namespace.mkdir(path, mode=0o777, uid=uid, gid=gid,
                             now=self.cluster.env.now)
