"""ShardFS-style baseline (ablation grade).

ShardFS (Xiao et al., SoCC'15) removes path-traversal RPCs by *replicating
all directory metadata on every metadata server*: any server can resolve
any path locally, so a file operation is a single RPC — but directory
mutations fan out to every server (N× write amplification), which is the
trade-off §II.C calls out.  Used by the path-traversal ablation bench,
which runs mkdir, create and getattr: those are the ops served.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from repro.dfs.errors import FileExists, FileNotFound
from repro.dfs.inode import FileType
from repro.dfs.namespace import normalize_path, parent_of, split_path
from repro.kvstore.dht import stable_hash64
from repro.sim.core import Event
from repro.sim.network import Cluster, Node, Service

__all__ = ["ShardFS"]


class _ShardFSServer(Service):
    """One MDS: full directory replica + its shard of file metadata."""

    def __init__(self, cluster: Cluster, node: Node, name: str):
        super().__init__(cluster, node, name,
                         workers=cluster.costs.mds_workers)
        self.dirs: Dict[str, Dict] = {"/": {"mode": 0o777}}
        self.files: Dict[str, Dict] = {}

    def _local_resolve(self, path: str) -> Generator[Event, Any, None]:
        """Path traversal entirely inside this server (no network)."""
        parts = split_path(path)
        current = ""
        # One cheap in-memory step per level — local, not RPCs.
        yield 1e-6 * max(1, len(parts) - 1)
        for name in parts[:-1]:
            current += "/" + name
            if current not in self.dirs:
                raise FileNotFound(current)

    def handle_mkdir_replica(self, path: str,
                             attrs: Dict) -> Generator[Event, Any, None]:
        """Apply a directory mutation to this replica."""
        yield self.costs.mds_op_service
        if path in self.dirs:
            raise FileExists(path)
        self.dirs[path] = attrs

    def handle_create(self, path: str,
                      attrs: Dict) -> Generator[Event, Any, Dict]:
        yield from self._local_resolve(path)
        yield self.costs.mds_op_service
        if path in self.files or path in self.dirs:
            raise FileExists(path)
        if parent_of(path) not in self.dirs:
            raise FileNotFound(parent_of(path))
        self.files[path] = attrs
        return attrs

    def handle_getattr(self, path: str) -> Generator[Event, Any, Dict]:
        yield from self._local_resolve(path)
        yield self.costs.mds_read_service
        record = self.files.get(path) or self.dirs.get(path)
        if record is None:
            raise FileNotFound(path)
        return record


class ShardFS:
    """Deployment + client in one object (ablation-grade API)."""

    def __init__(self, cluster: Cluster, server_nodes: List[Node]):
        if not server_nodes:
            raise ValueError("need at least one server node")
        self.cluster = cluster
        self.servers = [_ShardFSServer(cluster, node, name=f"shardfs{i}")
                        for i, node in enumerate(server_nodes)]

    def file_server_for(self, path: str) -> _ShardFSServer:
        return self.servers[stable_hash64(path) % len(self.servers)]

    # -- client-side operation generators -----------------------------------
    def mkdir(self, src: Node, path: str) -> Generator[Event, Any, None]:
        """Directory mutation: replicate to every server (the trade-off)."""
        path = normalize_path(path)
        attrs = {"mode": 0o755, "ftype": FileType.DIRECTORY.value}
        for server in self.servers:
            yield from server.request(src, "mkdir_replica", path, attrs)

    def create(self, src: Node, path: str) -> Generator[Event, Any, Dict]:
        path = normalize_path(path)
        attrs = {"mode": 0o644, "ftype": FileType.FILE.value}
        record = yield from self.file_server_for(path).request(
            src, "create", path, attrs)
        return record

    def getattr(self, src: Node, path: str) -> Generator[Event, Any, Dict]:
        """Single RPC regardless of depth — ShardFS's selling point."""
        path = normalize_path(path)
        record = yield from self.file_server_for(path).request(
            src, "getattr", path)
        return record
