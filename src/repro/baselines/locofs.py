"""LocoFS-style baseline (ablation grade).

LocoFS (Li et al., SC'17) decouples directory metadata from file metadata:
*all* directory metadata lives on a single Directory Metadata Server (DMS)
— so path traversal completes inside one node — while file metadata is
flattened by full-path hash across File Metadata Servers (FMS).  The
trade-off §II.C highlights: the single DMS is a scalability ceiling and a
single point of failure.  Used by the path-traversal ablation bench,
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

__all__ = ["LocoFS"]


class _DirectoryServer(Service):
    """The single DMS: all directory metadata, local traversal."""

    def __init__(self, cluster: Cluster, node: Node):
        super().__init__(cluster, node, "locofs-dms",
                         workers=cluster.costs.mds_workers)
        self.dirs: Dict[str, Dict] = {"/": {"mode": 0o777}}

    def handle_mkdir(self, path: str, attrs: Dict) -> Generator[Event, Any,
                                                                None]:
        yield self.costs.mds_op_service
        if path in self.dirs:
            raise FileExists(path)
        if parent_of(path) not in self.dirs:
            raise FileNotFound(parent_of(path))
        self.dirs[path] = attrs

    def handle_check_path(self, path: str) -> Generator[Event, Any, bool]:
        """Validate every ancestor locally — single-node traversal."""
        parts = split_path(path)
        yield self.costs.mds_lookup_service + 1e-6 * max(0, len(parts) - 1)
        current = ""
        for name in parts[:-1]:
            current += "/" + name
            if current not in self.dirs:
                raise FileNotFound(current)
        return True


class _FileServer(Service):
    """One FMS: flattened file metadata keyed by full path."""

    def __init__(self, cluster: Cluster, node: Node, name: str):
        super().__init__(cluster, node, name,
                         workers=cluster.costs.mds_workers)
        self.files: Dict[str, Dict] = {}

    def handle_create(self, path: str, attrs: Dict) -> Generator[Event, Any,
                                                                 Dict]:
        yield self.costs.mds_op_service
        if path in self.files:
            raise FileExists(path)
        self.files[path] = attrs
        return attrs

    def handle_getattr(self, path: str) -> Generator[Event, Any, Dict]:
        yield self.costs.mds_read_service
        record = self.files.get(path)
        if record is None:
            raise FileNotFound(path)
        return record


class LocoFS:
    """Deployment + client generators (ablation-grade API)."""

    def __init__(self, cluster: Cluster, dms_node: Node,
                 fms_nodes: List[Node]):
        if not fms_nodes:
            raise ValueError("need at least one file metadata server")
        self.cluster = cluster
        self.dms = _DirectoryServer(cluster, dms_node)
        self.fms = [_FileServer(cluster, node, name=f"locofs-fms{i}")
                    for i, node in enumerate(fms_nodes)]

    def fms_for(self, path: str) -> _FileServer:
        return self.fms[stable_hash64(path) % len(self.fms)]

    # -- client-side operation generators -----------------------------------
    def mkdir(self, src: Node, path: str) -> Generator[Event, Any, None]:
        path = normalize_path(path)
        yield from self.dms.request(src, "mkdir", path,
                                    {"mode": 0o755,
                                     "ftype": FileType.DIRECTORY.value})

    def create(self, src: Node, path: str) -> Generator[Event, Any, Dict]:
        """Two RPCs: one DMS path check + one FMS insert."""
        path = normalize_path(path)
        yield from self.dms.request(src, "check_path", path)
        record = yield from self.fms_for(path).request(
            src, "create", path, {"mode": 0o644,
                                  "ftype": FileType.FILE.value})
        return record

    def getattr(self, src: Node, path: str) -> Generator[Event, Any, Dict]:
        """File stat: DMS validates the chain in one hop, FMS serves attrs."""
        path = normalize_path(path)
        yield from self.dms.request(src, "check_path", path)
        record = yield from self.fms_for(path).request(src, "getattr", path)
        return record
