"""Deployment glue: wire Pacon onto a cluster + DFS, and a sync facade.

:class:`PaconDeployment` is the initialization phase of §III.B: given an
application's workspace and node list it materializes the workspace on the
DFS, builds the consistent region (cache shards, commit queues), and
launches one commit process per node.

:class:`PaconFS` is the library-style entry point for users who just want
a file-system object: it assembles a whole simulated world (cluster, a
BeeGFS-like DFS, one region) and exposes synchronous methods.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.checkpoint import CheckpointManager
from repro.core.client import PaconClient
from repro.core.commit import CommitProcess
from repro.core.config import PaconConfig
from repro.core.eviction import EvictionManager
from repro.core.region import ConsistentRegion, RegionManager
from repro.dfs.beegfs import BeeGFS
from repro.dfs.namespace import split_path
from repro.kvstore.memkv import KeyExists
from repro.sim.core import run_sync
from repro.sim.network import Cluster, Node

__all__ = ["PaconDeployment", "PaconFS"]


class PaconDeployment:
    """Builds and tracks consistent regions over one DFS."""

    def __init__(self, cluster: Cluster, dfs: BeeGFS):
        self.cluster = cluster
        self.dfs = dfs
        self.manager = RegionManager()

    # -- region lifecycle ---------------------------------------------------
    def create_region(self, config: PaconConfig, nodes: List[Node],
                      start_commit: bool = True) -> ConsistentRegion:
        """Initialize Pacon for one application (§III.B).

        Materializes the workspace (and Pacon's shadow directory) on the
        DFS as the admin would, registers the region (applying the
        overlapping-workspace rule), and starts the per-node commit
        processes.
        """
        region = ConsistentRegion(self.cluster, self.dfs, config, nodes)
        registered = self.manager.register(region)
        if registered is not region:
            return registered  # overlap: ride the existing (outer) region
        self._ensure_dfs_path(region.workspace,
                              mode=region.permissions.normal.mode,
                              uid=config.uid, gid=config.gid)
        self._ensure_dfs_path(region.dfs_shadow_dir, mode=0o777,
                              uid=config.uid, gid=config.gid)
        if start_commit:
            self.start_commit_processes(region)
        return region

    def _ensure_dfs_path(self, path: str, mode: int, uid: int,
                         gid: int) -> None:
        """Admin-side mkdir -p on the DFS namespace (zero simulated cost):
        root makes every missing directory, then hands the leaf to
        ``uid``/``gid``."""
        ns = self.dfs.namespace
        now = self.cluster.env.now
        current = ""
        parts = split_path(path)
        for i, name in enumerate(parts):
            current += "/" + name
            if not ns.exists(current):
                is_leaf = i == len(parts) - 1
                ns.mkdir(current, mode=mode if is_leaf else 0o755, now=now)
                if is_leaf:
                    ns.setattr(current, now=now, new_uid=uid, new_gid=gid)

    def _dfs_client(self, region: ConsistentRegion, node: Node):
        """An ordinary DFS client on ``node`` under the region's identity."""
        return self.dfs.client(node, uid=region.config.uid,
                               gid=region.config.gid)

    def _start_commit(self, region: ConsistentRegion, node: Node) -> None:
        CommitProcess(region, node, self._dfs_client(region, node)).start()

    def start_commit_processes(self, region: ConsistentRegion) -> None:
        if region.commit_processes:
            return  # already started
        for node in region.nodes:
            self._start_commit(region, node)

    def _rehome(self, region: ConsistentRegion, via: Node, source,
                onto=None):
        """Generator: move ``source``'s records to their current ring home.

        Only-if-absent: clients route a key to its new home as soon as
        the ring changes, so a record mutated there during the migration
        is newer than the copy being moved and must win.  A growing
        region passes the joining shard as ``onto``: ``source`` stays a
        member, keeps what still hashes to it, and drops each stale copy
        once the new home holds one.  A retired shard (already off the
        ring) re-homes everything.  Returns the number of records moved.
        """
        entries = yield from source.request(via, "scan_prefix", "")
        moved = 0
        for key, record in entries:
            home = region.cache.shard_for(key)
            if onto is not None and home is not onto:
                continue
            try:
                yield from home.request(via, "add", key, record)
                moved += 1
            except KeyExists:
                pass  # concurrent mutation on the new home wins
            if onto is not None:
                yield from source.request(via, "delete", key)
        return moved

    def grow_region_async(self, region: ConsistentRegion, node: Node):
        """Generator: elastically expand a region onto ``node`` (§III.A
        Benefit 2); chaos churn and the autoscaler run it as a DES process
        mid-run.

        Quiesces the region first (every entry gets its DFS backup copy),
        joins the new cache shard/queue/commit process, then migrates the
        cache records whose ring placement moved to the new shard — so
        inline small-file data and metadata stay primary-copy-resident
        across the membership change.  Returns the number of records
        migrated (consistent hashing keeps this near 1/(N+1) of the keys).
        A barrier epoch still in flight is safe: ``add_node`` defers the
        barrier's party bump until it completes (docs/elasticity.md).
        """
        yield from self.quiesce(region)
        new_shard = region.add_node(node)
        self._start_commit(region, node)
        moved = 0
        for old in region.shards:
            # Crashed shards were wiped by fail_node; their records will
            # be re-fetched from the DFS on demand.  Growth must not
            # stall (or crash) on an unreachable peer.
            if old is not new_shard and old.node.alive:
                moved += yield from self._rehome(region, node, old,
                                                 onto=new_shard)
        return moved

    def retire_node_async(self, region: ConsistentRegion, node: Node):
        """Generator: shrink the region off ``node`` (planned departure).

        Settles (quiesced, no barrier epoch in flight), detaches the node
        (ring, shard, queue, commit process — which exits via queue close),
        then re-homes the departing shard's records onto the ring.  The
        migration runs *after* ring removal, so a record mutated
        concurrently on its new home shard is never clobbered by the
        stale departing copy.  Returns the number of records migrated.

        Refuses to shrink the region below one node: the last shard has
        nowhere to migrate to, and ``remove_node`` would reject it anyway
        — but only after this method had already quiesced and looked for
        a survivor, so the guard lives up front where it can fail fast
        and leave the region untouched.
        """
        if node not in region.nodes:
            raise ValueError(f"{node.name} is not part of region "
                             f"{region.name}")
        if len(region.nodes) == 1:
            raise ValueError(
                f"cannot retire {node.name}: it is the last node of "
                f"region {region.name}; a region cannot shrink below "
                f"one node")
        yield from self.settle(region)
        survivor = next(n for n in region.nodes if n is not node)
        shard = region.remove_node(node)
        # The node is alive (this is retirement, not a crash): the
        # survivor reads the departing shard directly.
        moved = yield from self._rehome(region, survivor, shard)
        shard.kv.flush_all()
        return moved

    # -- component factories --------------------------------------------------
    def client(self, region: ConsistentRegion, node: Node) -> PaconClient:
        return PaconClient(region, node)

    def evictor(self, region: ConsistentRegion,
                node: Optional[Node] = None) -> EvictionManager:
        node = node or region.nodes[0]
        return EvictionManager(region, node, self._dfs_client(region, node))

    def checkpointer(self, region: ConsistentRegion,
                     keep: int = 4) -> CheckpointManager:
        node = region.nodes[0]
        return CheckpointManager(region, node,
                                 self._dfs_client(region, node), keep=keep)

    # -- quiescing ---------------------------------------------------------------
    def quiesce(self, region: ConsistentRegion):
        """Generator: wait until every queued operation has committed,
        polling every 200 µs.

        Dead commit processes (crashed, not yet restarted) are skipped:
        their queues only drain when :func:`repro.core.failure.recover_node`
        restarts the loop, so polling them would hang grow/retire/close
        forever after a chaos ``fail_node``.  Their backlog is recovery's
        responsibility, not quiescing's.
        """
        while True:
            if all(cp.idle for cp in region.commit_processes
                   if not cp.dead):
                return
            yield 200e-6

    def settle(self, region: ConsistentRegion,
               poll_interval: float = 200e-6):
        """Generator: quiesce until no barrier epoch is in flight either
        (``region.barriers_settled``) — what removing a node requires and
        what "fully drained" means at the end of a faulty run."""
        yield from self.quiesce(region)
        while not region.barriers_settled:
            yield poll_interval
            yield from self.quiesce(region)

    def quiesce_sync(self, region: ConsistentRegion) -> None:
        run_sync(self.cluster.env, self.quiesce(region),
                 label=f"quiesce:{region.name}")


class PaconFS:
    """Synchronous, single-object facade over a full Pacon world.

    Builds a simulated cluster (default costs and seed), a BeeGFS-like DFS
    (one MDS, three data servers), one consistent region on ``nodes``
    client nodes, and drives every call to completion with the
    event loop hidden.  This is the five-minute on-ramp used by
    ``examples/quickstart.py``.
    """

    def __init__(self, workspace: str = "/workspace", nodes: int = 4,
                 config: Optional[PaconConfig] = None):
        self.cluster = Cluster()
        self.dfs = BeeGFS(self.cluster)
        self.client_nodes = [self.cluster.add_node(f"client{i}")
                             for i in range(nodes)]
        if config is None:
            config = PaconConfig(workspace=workspace)
        elif config.workspace != workspace:
            raise ValueError("workspace argument and config.workspace differ")
        self.deployment = PaconDeployment(self.cluster, self.dfs)
        self.region = self.deployment.create_region(config, self.client_nodes)
        self._client = self.deployment.client(self.region,
                                              self.client_nodes[0])
        self._closed = False

    # -- sync wrappers -------------------------------------------------------
    def _run(self, gen, label: str):
        if self._closed:
            raise RuntimeError("PaconFS is closed")
        return run_sync(self.cluster.env, gen, label=label)

    def mkdir(self, path: str, mode: Optional[int] = None):
        return self._run(self._client.mkdir(path, mode), f"mkdir:{path}")

    def create(self, path: str, mode: Optional[int] = None):
        return self._run(self._client.create(path, mode), f"create:{path}")

    def rm(self, path: str) -> None:
        self._run(self._client.rm(path), f"rm:{path}")

    def rmdir(self, path: str) -> int:
        return self._run(self._client.rmdir(path), f"rmdir:{path}")

    def stat(self, path: str):
        return self._run(self._client.getattr(path), f"stat:{path}")

    def exists(self, path: str) -> bool:
        return self._run(self._client.exists(path), f"exists:{path}")

    def readdir(self, path: str) -> List[str]:
        return self._run(self._client.readdir(path), f"readdir:{path}")

    def write(self, path: str, offset: int = 0,
              data: Optional[bytes] = None,
              size: Optional[int] = None) -> int:
        return self._run(self._client.write(path, offset, data=data,
                                            size=size), f"write:{path}")

    def read(self, path: str, offset: int = 0, size: int = 1 << 20) -> bytes:
        return self._run(self._client.read(path, offset, size),
                         f"read:{path}")

    def fsync(self, path: str) -> None:
        self._run(self._client.fsync(path), f"fsync:{path}")

    def chmod(self, path: str, mode: int) -> None:
        self._run(self._client.chmod(path, mode), f"chmod:{path}")

    # -- lifecycle -----------------------------------------------------------------
    def quiesce(self) -> None:
        """Block until all asynchronous commits have reached the DFS."""
        self.deployment.quiesce_sync(self.region)

    def close(self) -> None:
        """Quiesce, then shut down commit processes."""
        if self._closed:
            return
        self.quiesce()
        self.region.close()
        self.cluster.env.run()
        self._closed = True

    # -- introspection ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Simulated time consumed so far (seconds)."""
        return self.cluster.env.now

    def dfs_namespace_entries(self) -> int:
        return self.dfs.namespace.count_entries()

    def cache_items(self) -> int:
        return self.region.cache.total_items()
