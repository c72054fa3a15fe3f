"""Failure recovery: region checkpointing and rollback (§III.G).

Client-node failure loses uncommitted operations, but only for the failed
node's own consistent region.  Pacon recovers by rolling the region's
subtree on the DFS back to the most recent checkpoint and rebuilding the
distributed cache from it.  Checkpoints cover the *workspace subtree
only*, never the whole namespace, and the interface is exposed to the
application so it can choose its own cadence (checkpointing is optional:
without it the DFS still guarantees crash consistency of everything that
committed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.core.cache import new_record
from repro.dfs.namespace import snapshot_entries
from repro.sim.core import Event

__all__ = ["Checkpoint", "CheckpointManager"]


@dataclass
class Checkpoint:
    """One subtree snapshot (stored on the DFS in the real system)."""

    region_name: str
    workspace: str
    taken_at: float
    snapshot: Dict[str, Any]
    entries: int


class CheckpointManager:
    """Takes, keeps, and restores checkpoints for one region."""

    def __init__(self, region, node, dfs_client, keep: int = 4):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.region = region
        self.node = node
        self.env = region.env
        self.dfs_client = dfs_client
        self.keep = keep
        self.checkpoints: List[Checkpoint] = []
        # stats
        self.taken = 0
        self.restored = 0

    # -- taking --------------------------------------------------------------
    def checkpoint(self) -> Generator[Event, Any, Checkpoint]:
        """Snapshot the region subtree as it stands on the DFS.

        The cost equals a subtree copy on the DFS (charged at the MDS).
        Note the snapshot captures *committed* state; callers that need
        all in-flight operations included should quiesce first (see
        :meth:`repro.core.deploy.PaconDeployment.quiesce`).
        """
        ws = self.region.workspace
        mds = self.region.dfs.mds_for(ws)
        snapshot = yield from mds.request(self.node, "export_subtree", ws)
        cp = Checkpoint(
            region_name=self.region.name,
            workspace=ws,
            taken_at=self.env.now,
            snapshot=snapshot,
            # The workspace root itself is not an entry; clamp so an empty
            # (or degenerate) subtree snapshot reports 0, never -1.
            entries=max(0, snapshot_entries(snapshot["tree"]) - 1),
        )
        self.checkpoints.append(cp)
        if len(self.checkpoints) > self.keep:
            self.checkpoints.pop(0)
        self.taken += 1
        return cp

    @property
    def latest(self) -> Optional[Checkpoint]:
        return self.checkpoints[-1] if self.checkpoints else None

    # -- restoring ----------------------------------------------------------------
    def restore(self) -> Generator[Event, Any, int]:
        """Roll the DFS subtree back to the latest checkpoint and rebuild
        the distributed cache.

        Returns the number of entries restored.  The region's cache is
        flushed and re-primed from the checkpoint (every record marked
        committed — the checkpoint *is* the DFS state).
        """
        cp = self.latest
        if cp is None:
            raise RuntimeError(f"region {self.region.name} has no checkpoint")
        mds = self.region.dfs.mds_for(cp.workspace)
        restored = yield from mds.request(self.node, "restore_subtree",
                                          cp.snapshot)
        cache = self.region.cache
        # Drop whatever survived (possibly inconsistent) cache state.
        yield from cache.delete_subtree(self.node, cp.workspace)
        for shard in self.region.shards:
            shard.kv.flush_all()
        # Prime from the snapshot.
        for path, inode_record in _iter_snapshot(cp.snapshot):
            if path == cp.workspace:
                continue
            record = new_record(inode_record, committed=True)
            yield from cache.set(self.node, path, record)
        self.restored += 1
        return restored

    # -- periodic loop -----------------------------------------------------------------
    def run(self, interval: float) -> Generator[Event, Any, None]:
        """Optional background process for periodic checkpointing."""
        if interval <= 0:
            raise ValueError("interval must be positive")
        while True:
            yield float(interval)
            yield from self.checkpoint()


def _iter_snapshot(snapshot: Dict):
    """Yield (path, inode_record) for every entry in a snapshot."""
    base = snapshot["path"]

    def walk(prefix: str, node: Dict):
        yield prefix, node["inode"]
        for name, child in node.get("children", {}).items():
            yield from walk(f"{prefix.rstrip('/')}/{name}", child)

    yield from walk(base, snapshot["tree"])
