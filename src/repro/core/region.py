"""Consistent regions: the unit of partial consistency (§III.A).

A region is one application workspace: a subtree of the global namespace,
the set of nodes the application runs on, a distributed metadata cache
sharded over those nodes, per-node commit queues feeding commit processes,
and the barrier-epoch machinery that serializes dependent operations
(§III.E).

Regions are isolated from each other — different regions have disjoint
caches and queues, which is both the scalability mechanism (Fig. 8) and
the failure-isolation property (§III.G).  ``merge`` connects regions so
clients of one can *read* the other's cache (§III.D.4: "Currently, Pacon
only supports read-only access to the merged consistent region").
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.cache import CacheShard, DistributedCache
from repro.core.config import PaconConfig
from repro.core.permissions import RegionPermissions
from repro.dfs.namespace import is_within, normalize_path
from repro.mq.queue import QueueGroup
from repro.obs.hub import NULL_HUB
from repro.sim.core import Event
from repro.sim.network import Cluster, Node
from repro.sim.resources import Barrier
from repro.sim.trace import NULL_TRACER

__all__ = ["ConsistentRegion", "RegionManager", "ReadOnlyRegion"]


class ReadOnlyRegion(PermissionError):
    """Write attempted through a merged (read-only) region."""


class ConsistentRegion:
    """State and coordination for one application workspace."""

    def __init__(self, cluster: Cluster, dfs, config: PaconConfig,
                 nodes: List[Node], name: str = ""):
        if not nodes:
            raise ValueError("a region needs at least one node")
        self.cluster = cluster
        self.env = cluster.env
        self.dfs = dfs
        self.config = config
        self.workspace = normalize_path(config.workspace)
        self.name = name or self.workspace
        self.nodes = list(nodes)
        # Distributed cache: one shard per region node.  ``shards`` is the
        # cache's own list, so membership has one registry to keep right.
        self.cache = DistributedCache([
            CacheShard(cluster, node, config.cache_capacity_bytes,
                       name=f"{self.name}.cache[{node.name}]")
            for node in self.nodes
        ])
        self.shards = self.cache.shards
        # Batch permissions (predefined or Linux-like default, §III.C).
        if config.permissions is not None:
            self.permissions = RegionPermissions(self.workspace,
                                                 config.permissions)
        else:
            self.permissions = RegionPermissions.linux_like_default(
                self.workspace, config.uid, config.gid)
        # Commit queues: one per node (Fig. 5).
        self.queues = QueueGroup(self.env, name=f"{self.name}.commitq")
        for node in self.nodes:
            self.queues.add_node(node.node_id)
        # Barrier-epoch machinery (§III.E).
        self.client_epoch = 0
        self.commit_barrier = Barrier(self.env, parties=len(self.nodes),
                                      name=f"{self.name}.barrier")
        self._barrier_done: Dict[int, Event] = {}
        # Clients per node (the commit process needs the local count to
        # know when a barrier epoch is fully flushed, Fig. 6).
        self.clients_on_node: Dict[int, int] = {n.node_id: 0 for n in nodes}
        self._next_client_id = 0
        # Client handles register here (observers read them off the region).
        self.clients: List = []
        # Subtrees removed by committed rmdirs: commit processes discard
        # pending creations inside them (§III.D.1).  Indexed by normalized
        # prefix so a discard check walks the op path's ancestors (O(depth)
        # dict lookups) instead of scanning every removal ever recorded.
        # Timestamped entries are pruned once no outstanding operation can
        # still be older than the removal; the timestamp-free set answers
        # the "was this prefix ever removed" orphan query and only dedups.
        self._removed_subtrees: Dict[str, float] = {}
        self._ever_removed: Set[str] = set()
        # Barrier-party bumps deferred while a rendezvous is in flight
        # (epoch watermarks; see add_node).
        self._deferred_barrier_parties: List[int] = []
        # Merged regions reachable for read-only access (§III.D.4).
        self.merged: List["ConsistentRegion"] = []
        # Commit processes register here (deploy wires them).
        self.commit_processes: List = []
        # Optional observability (repro.sim.trace / repro.obs); NULL by
        # default so the hot path pays nothing.  MetricsHub.attach_region
        # swaps both in.
        self.tracer = NULL_TRACER
        self.hub = NULL_HUB
        # Shadow directory on the DFS for fsync-before-create cache files
        # (§III.D.2); the deployment materializes it.
        safe = self.workspace.strip("/").replace("/", "_") or "root"
        self.dfs_shadow_dir = f"/.pacon/{safe}"
        self._next_provisional_ino = 1 << 30
        # stats
        self.ops_submitted = 0
        self.barrier_epochs_completed = 0
        # Membership history: ``(time, node_count)`` per change, seeded
        # with the initial size.  The autoscaler bench integrates this
        # into provisioned cost (node-seconds); see :meth:`node_seconds`.
        self.membership_log: List[Tuple[float, int]] = [
            (self.env.now, len(self.nodes))]
        # Version-lag ledger: per-path count of published-but-unresolved
        # mutations (resolved = committed, discarded, or coalesced away).
        # Maintained only while a hub is attached (call sites guard on
        # ``hub.enabled``); feeds staleness-at-read version lag.
        self._pending_mutations: Dict[str, int] = {}

    def alloc_provisional_ino(self) -> int:
        """Region-unique ino for entries that only exist in the cache yet."""
        ino = self._next_provisional_ino
        self._next_provisional_ino += 1
        return ino

    @property
    def ops_committed(self) -> int:
        """Ops committed to the DFS, summed over the commit processes (a
        retired node hosted no clients, so its queue never carried one)."""
        return sum(cp.committed for cp in self.commit_processes)

    # -- membership -----------------------------------------------------------
    def register_client(self, node: Node) -> int:
        if node.node_id not in self.clients_on_node:
            raise ValueError(
                f"node {node.name} is not a member of region {self.name}")
        self.clients_on_node[node.node_id] += 1
        client_id = self._next_client_id
        self._next_client_id += 1
        return client_id

    def total_clients(self) -> int:
        return sum(self.clients_on_node.values())

    # -- coverage ---------------------------------------------------------------
    def covers(self, path: str) -> bool:
        return is_within(path, self.workspace)

    def covering_region(self, path: str) -> Optional["ConsistentRegion"]:
        """This region, a merged region, or None (redirect to DFS)."""
        if self.covers(path):
            return self
        for other in self.merged:
            if other.covers(path):
                return other
        return None

    # -- elasticity (§III.A Benefit 2) ------------------------------------------------
    def add_node(self, node: Node) -> "CacheShard":
        """Grow the region onto another node.

        Pacon services launch with the application's clients, so a region
        can expand when the scheduler gives the application more nodes.
        The new shard joins the consistent-hash ring (moving ~1/N of the
        key space to it) and gets its own commit queue.

        Use :meth:`repro.core.deploy.PaconDeployment.grow_region`, which
        wraps this with the required quiesce (an uncommitted entry whose
        key moved would otherwise become unreachable) and migrates the
        moved records onto the new shard.
        """
        if node in self.nodes:
            raise ValueError(f"node {node.name} already in region"
                             f" {self.name}")
        shard = CacheShard(self.cluster, node,
                           self.config.cache_capacity_bytes,
                           name=f"{self.name}.cache[{node.name}]")
        self.nodes.append(node)
        self.shards.append(shard)
        self.cache.ring.add(shard)
        self.queues.add_node(node.node_id)
        self.clients_on_node[node.node_id] = 0
        # The region-wide commit barrier now has one more party — but only
        # for epochs triggered from here on.  Epochs already triggered
        # (including a rendezvous mid-flight right now) were broadcast
        # before this node's queue existed, so its commit process can never
        # arrive for them; bumping parties immediately would deadlock the
        # in-flight epoch (or, with the bump racing arrivals, double-count
        # a release).  Defer the bump until every already-triggered epoch
        # has completed.
        if self.barriers_settled:
            self.commit_barrier.parties += 1
        else:
            self._deferred_barrier_parties.append(self.client_epoch)
        self.membership_log.append((self.env.now, len(self.nodes)))
        if self.hub.enabled:
            self.hub.timeline.record(
                self.env.now, "membership", "node.joined", node.name,
                detail=f"nodes={len(self.nodes)}")
            self.hub.track_member(self, shard)
        return shard

    def remove_node(self, node: Node) -> "CacheShard":
        """Shrink the region off ``node``; returns the detached shard.

        The inverse of :meth:`add_node` for planned (non-crash) departure
        — cache-node churn on the DHT ring.  Preconditions: the node must
        host no clients, and all barrier epochs must be settled (the
        departing commit process may still be draining; closing its queue
        lets it exit cleanly).  Use
        :meth:`repro.core.deploy.PaconDeployment.retire_node`, which
        wraps this with the required quiesce and migrates the departing
        shard's records back onto the ring.
        """
        if node not in self.nodes:
            raise ValueError(f"node {node.name} not in region {self.name}")
        if len(self.nodes) == 1:
            raise ValueError(f"cannot remove the last node of {self.name}")
        if self.clients_on_node.get(node.node_id, 0) > 0:
            raise RuntimeError(
                f"node {node.name} still hosts clients; move them first")
        if not self.barriers_settled:
            raise RuntimeError(
                f"region {self.name} has barrier epochs in flight;"
                " settle them before removing a node")
        shard = next(s for s in self.shards if s.node is node)
        self.nodes.remove(node)
        self.shards.remove(shard)
        self.cache.ring.remove(shard)
        # Pop from the group before closing so a concurrent broadcast
        # never trips over a closed member queue.
        queue = self.queues.remove_node(node.node_id)
        queue.close()
        self.commit_processes[:] = [cp for cp in self.commit_processes
                                    if cp.node is not node]
        del self.clients_on_node[node.node_id]
        self.commit_barrier.parties -= 1
        self.membership_log.append((self.env.now, len(self.nodes)))
        if self.hub.enabled:
            self.hub.timeline.record(
                self.env.now, "membership", "node.departed", node.name,
                detail=f"nodes={len(self.nodes)}")
        return shard

    def node_seconds(self, until: Optional[float] = None) -> float:
        """Provisioned cost so far: the step integral of member count
        over simulated time.  A static region of N nodes over a span T
        costs exactly ``N * T``; an autoscaled one pays only for the
        nodes while they are members."""
        end = self.env.now if until is None else until
        total = 0.0
        for i, (start, count) in enumerate(self.membership_log):
            stop = (self.membership_log[i + 1][0]
                    if i + 1 < len(self.membership_log) else end)
            total += count * max(0.0, stop - start)
        return total

    # -- merging (§III.D.4) ----------------------------------------------------------
    def merge(self, other: "ConsistentRegion", mutual: bool = True) -> None:
        """Connect regions so clients can read each other's workspace.

        Step 1 of the paper (exchange basic information) is the object
        reference; step 2 (establish connections) is modeled by the
        network paths to the other region's shards, which are used on
        every read.
        """
        if other is self:
            raise ValueError("cannot merge a region with itself")
        if is_within(other.workspace, self.workspace) or \
                is_within(self.workspace, other.workspace):
            raise ValueError(
                "overlapping workspaces are one region, not a merge"
                " (paper §III.B case 3)")
        if other not in self.merged:
            self.merged.append(other)
        if mutual and self not in other.merged:
            other.merged.append(self)

    # -- barrier epochs (§III.E) ---------------------------------------------------------
    @property
    def barriers_settled(self) -> bool:
        """Every triggered epoch has completed and no commit process is
        parked at the rendezvous — the one precondition of any membership
        change that touches the barrier's party count."""
        return (self.barrier_epochs_completed >= self.client_epoch
                and self.commit_barrier.n_waiting == 0)

    def trigger_barrier(self) -> Tuple[int, Event]:
        """Start a barrier epoch for a dependent operation.

        Pushes one barrier message per client into each node's commit
        queue (every client "generates a barrier message" — the shared
        epoch counter makes this an atomic instant in the simulation) and
        bumps the client epoch.  Returns ``(epoch, done_event)`` where the
        event fires once every commit process has drained that epoch.
        """
        from repro.core.commit import BarrierMessage

        epoch = self.client_epoch
        self.client_epoch += 1
        for node in self.nodes:
            queue = self.queues.route(node.node_id)
            for _ in range(max(1, self.clients_on_node[node.node_id])):
                queue.publish(BarrierMessage(epoch=epoch,
                                             node_id=node.node_id,
                                             timestamp=self.env.now))
        done = self._barrier_done.setdefault(
            epoch, self.env.event(name=f"{self.name}.barrier[{epoch}]"))
        return epoch, done

    def signal_barrier_complete(self, epoch: int) -> None:
        """Called by the commit process that completes the epoch barrier."""
        ev = self._barrier_done.setdefault(
            epoch, self.env.event(name=f"{self.name}.barrier[{epoch}]"))
        if not ev.triggered:
            self.barrier_epochs_completed += 1
            ev.succeed(epoch)
        # Epochs complete in order, so once every epoch triggered before an
        # elastic add_node has finished, the deferred party bump is safe:
        # the grown process participates in all later epochs.
        while self._deferred_barrier_parties and \
                self.barrier_epochs_completed >= \
                self._deferred_barrier_parties[0]:
            self._deferred_barrier_parties.pop(0)
            self.commit_barrier.parties += 1

    def expected_barrier_messages(self, node_id: int) -> int:
        # .get: a retiring node's commit process re-checks its barrier
        # state after remove_node dropped its membership entry, while it
        # drains toward the queue-closed exit.
        return max(1, self.clients_on_node.get(node_id, 0))

    # -- removed-subtree bookkeeping -----------------------------------------------------
    @property
    def removed_subtrees(self) -> List[Tuple[str, float]]:
        """Unpruned timestamped removal entries (inspection only)."""
        return sorted(self._removed_subtrees.items())

    @staticmethod
    def _prefixes(path: str) -> Iterator[str]:
        """``path`` and every proper ancestor, deepest first (not '/')."""
        while path != "/":
            yield path
            idx = path.rfind("/")
            path = path[:idx] if idx > 0 else "/"

    def note_removed_subtree(self, path: str) -> None:
        """Record a committed rmdir at the current instant.

        Only operations *older* than the removal are doomed (they raced
        with the rmdir and their parent is gone); a later re-creation of
        the same name is legitimate, so the discard check is
        timestamp-bounded.
        """
        self.prune_removed_subtrees()
        path = normalize_path(path)
        self._removed_subtrees[path] = self.env.now
        self._ever_removed.add(path)

    def inside_removed_subtree(self, path: str,
                               timestamp: Optional[float] = None) -> bool:
        """Was ``path`` inside a subtree removed after ``timestamp``?

        ``timestamp=None`` asks the unbounded question — was this prefix
        *ever* removed (the orphaned-straggler discard extension).
        """
        if timestamp is None:
            if not self._ever_removed:
                return False
            path = normalize_path(path)
            return any(prefix in self._ever_removed
                       for prefix in self._prefixes(path))
        if not self._removed_subtrees:
            return False
        path = normalize_path(path)
        for prefix in self._prefixes(path):
            removed_at = self._removed_subtrees.get(prefix)
            if removed_at is not None and timestamp <= removed_at:
                return True
        return False

    # -- version-lag ledger (observability; hub-gated at call sites) ---------
    def note_op_pending(self, path: str) -> None:
        """A mutation for ``path`` was published into a commit queue."""
        self._pending_mutations[path] = \
            self._pending_mutations.get(path, 0) + 1

    def note_op_resolved(self, path: str) -> None:
        """A published mutation for ``path`` left the pipeline (committed,
        discarded, coalesced, or lost to an abort)."""
        n = self._pending_mutations.get(path, 0)
        if n <= 1:
            self._pending_mutations.pop(path, None)
        else:
            self._pending_mutations[path] = n - 1

    def pending_mutations(self, path: str) -> int:
        """Published-but-unresolved mutation count for ``path`` (the
        version lag a read of ``path`` observes vs. the MDS copy)."""
        return self._pending_mutations.get(path, 0)

    def total_pending_mutations(self) -> int:
        return sum(self._pending_mutations.values())

    def oldest_outstanding_op_timestamp(self) -> Optional[float]:
        """Publish timestamp of the oldest operation still anywhere in the
        commit pipeline (queued, held, retrying, or in flight); None when
        the pipeline is empty.

        Publish stamps are monotone, and each queue is FIFO, so its head
        message lower-bounds the whole queue — no backlog scan needed.
        """
        oldest: Optional[float] = None
        for queue in self.queues.queues():
            head = queue.peek_head()
            ts = getattr(head, "timestamp", None)
            if ts is not None and (oldest is None or ts < oldest):
                oldest = ts
        for cp in self.commit_processes:
            ts = cp.oldest_outstanding_timestamp()
            if ts is not None and (oldest is None or ts < oldest):
                oldest = ts
        return oldest

    def prune_removed_subtrees(self) -> int:
        """Drop timestamped removal entries no outstanding op can match.

        An entry ``(path, removed_at)`` only ever dooms operations with
        ``timestamp <= removed_at``; once every operation still in the
        pipeline is strictly newer, the entry is dead weight.  Without
        pruning the index grows per rmdir for the life of the region
        (and, before the prefix index, was *linearly scanned on every
        commit attempt*).  Returns the number of entries pruned.
        """
        if not self._removed_subtrees:
            return 0
        cutoff = self.oldest_outstanding_op_timestamp()
        if cutoff is None:
            cutoff = self.env.now
        stale = [path for path, removed_at in self._removed_subtrees.items()
                 if removed_at < cutoff]
        for path in stale:
            del self._removed_subtrees[path]
        return len(stale)

    # -- shutdown ----------------------------------------------------------------
    def close(self) -> None:
        """Close commit queues (commit processes drain and exit)."""
        self.queues.close_all()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<ConsistentRegion {self.name} nodes={len(self.nodes)}"
                f" clients={self.total_clients()}>")


class RegionManager:
    """Registry of regions; routes paths and applies the overlap rule."""

    def __init__(self):
        self._regions: Dict[str, ConsistentRegion] = {}

    def register(self, region: ConsistentRegion) -> ConsistentRegion:
        """Register a region, applying §III.B case 3 for overlaps.

        If the new workspace lies inside an existing region's workspace,
        the existing (larger) region is returned instead of registering a
        new one.  An existing region nested inside the new workspace is an
        error — the outer application must be configured first.
        """
        ws = region.workspace
        for existing_ws, existing in self._regions.items():
            if is_within(ws, existing_ws):
                return existing
            if is_within(existing_ws, ws):
                raise ValueError(
                    f"workspace {ws} contains existing region"
                    f" {existing_ws}; configure the outer application"
                    " first (paper §III.B case 3)")
        self._regions[ws] = region
        return region

    def region_for(self, path: str) -> Optional[ConsistentRegion]:
        """Longest-prefix region covering ``path``, or None."""
        path = normalize_path(path)
        best: Optional[ConsistentRegion] = None
        for ws, region in self._regions.items():
            if is_within(path, ws):
                if best is None or len(ws) > len(best.workspace):
                    best = region
        return best

    def regions(self) -> List[ConsistentRegion]:
        return list(self._regions.values())

    def __len__(self) -> int:
        return len(self._regions)
