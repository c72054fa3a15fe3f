"""IndexFS-equivalent metadata service (design-level reproduction).

IndexFS (Ren et al., SC'14) scales file-system metadata by flattening it
into LSM-tree KV stores partitioned across metadata servers, with
*stateless* client caching of directory entries under short leases, and
*bulk insertion* for N-N workloads (the mechanism BatchFS/DeltaFS build
on).  The paper under reproduction deploys IndexFS servers co-located with
the client nodes and stores the LevelDB tables on BeeGFS.

This module reproduces those design elements on this repo's substrates:

* each server owns an :class:`~repro.kvstore.lsm.LSMTree`; every operation
  charges simulated time from the tree's physical receipts (memtable vs.
  WAL vs. SSTable probes), so LSM read amplification and flush/compaction
  costs shape the results exactly as LevelDB shapes IndexFS's,
* metadata is partitioned by *parent directory* with GIGA+-style
  incremental splitting: a directory starts on one server and doubles its
  partition count whenever its entry count crosses a threshold, spreading
  hot directories over servers; lookups that miss the newest partition
  probe older partition generations (halving the partition count each
  probe) exactly as GIGA+ clients chase a stale mapping,
* clients resolve paths component-by-component against a lease-scoped
  dentry cache: a fresh lease costs nothing, an expired or missing entry
  costs a lookup RPC — deeper namespaces mean more entries to keep fresh,
  which is where Figs. 2/9's depth effect comes from,
* strong consistency at the servers: attributes are never served from the
  client cache (only dentry existence for traversal), matching §IV.A's
  observation that IndexFS "cannot fully utilize the memory on the client
  nodes".

Bulk insertion buffers creates client-side and ships them per-server in
batches (one WAL sync per batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.dfs.errors import (
    FileExists,
    FileNotFound,
    NotADirectory,
    PermissionDenied,
)
from repro.dfs.inode import AccessMode, FileType, Inode, check_mode_bits
from repro.dfs.namespace import normalize_path, parent_of, split_path
from repro.kvstore.dht import stable_hash64
from repro.kvstore.lsm import LSMTree, ReadReceipt, WriteReceipt
from repro.sim.core import Event
from repro.sim.network import Cluster, Node, Service

__all__ = ["IndexFS", "IndexFSServer", "IndexFSClient"]


def _record(ftype: FileType, mode: int, uid: int, gid: int, ino: int,
            now: float, size: int = 0) -> Dict[str, Any]:
    return {"ino": ino, "ftype": ftype.value, "mode": mode, "uid": uid,
            "gid": gid, "size": size, "ctime": now, "mtime": now,
            "nlink": 1, "inline_data": None}


class IndexFSServer(Service):
    """One metadata server: an LSM tree plus request handlers."""

    def __init__(self, cluster: Cluster, node: Node, name: str = "ifs",
                 memtable_limit: int = 4096, l0_limit: int = 4):
        super().__init__(cluster, node, name,
                         workers=cluster.costs.indexfs_workers)
        self.lsm = LSMTree(memtable_limit=memtable_limit, l0_limit=l0_limit,
                           name=name)
        self._next_ino = 1

    def alloc_ino(self) -> int:
        self._next_ino += 1
        return self._next_ino

    # -- cost charging ---------------------------------------------------
    def _charge_read(self, receipt: ReadReceipt) -> Generator[Event, Any, None]:
        c = self.costs
        cost = c.indexfs_op_cpu + c.lsm_memtable_op
        cost += c.lsm_bloom_check * receipt.bloom_checks
        cost += c.lsm_sstable_read * receipt.tables_probed
        yield cost

    def _charge_write(self, receipt: WriteReceipt,
                      synced: bool = True) -> Generator[Event, Any, None]:
        c = self.costs
        cost = c.indexfs_op_cpu + c.lsm_memtable_op
        if synced:
            cost += c.lsm_wal_append
        cost += c.lsm_flush_per_entry * receipt.flushed_entries
        cost += c.lsm_compact_per_entry * receipt.compacted_entries
        yield cost

    # -- internal helpers -------------------------------------------------------
    def _get(self, path: str) -> Generator[Event, Any, Optional[Dict]]:
        receipt = self.lsm.get(path)
        yield from self._charge_read(receipt)
        return receipt.value if receipt.found else None

    def _require_parent_dir(self, path: str) -> Dict:
        """Parent existence check against the shared directory map (the
        GIGA+-style index every server keeps a copy of)."""
        parent = parent_of(path)
        parent_record = self.deployment.dirmap.get(parent)
        if parent_record is None:
            raise FileNotFound(parent)
        if parent_record["ftype"] != FileType.DIRECTORY.value:
            raise NotADirectory(parent)
        return parent_record

    # -- handlers ---------------------------------------------------------------
    def handle_lookup(self, path: str) -> Generator[Event, Any, Dict]:
        record = yield from self._get(path)
        if record is None:
            raise FileNotFound(path)
        return record

    def handle_getattr(self, path: str, uid: int,
                       gid: int) -> Generator[Event, Any, Dict]:
        record = yield from self._get(path)
        if record is None:
            raise FileNotFound(path)
        return record

    def handle_create(self, path: str, ftype_value: str, mode: int, uid: int,
                      gid: int,
                      check_parent: bool = True) -> Generator[Event, Any,
                                                              Dict]:
        if check_parent:
            parent_record = self._require_parent_dir(path)
            if not check_mode_bits(parent_record["mode"], uid, gid,
                                   parent_record["uid"],
                                   parent_record["gid"],
                                   AccessMode.WRITE | AccessMode.EXECUTE):
                raise PermissionDenied(path, "parent write")
        existing = yield from self._get(path)
        if existing is not None:
            raise FileExists(path)
        record = _record(FileType(ftype_value), mode, uid, gid,
                         self.alloc_ino(), self.env.now)
        receipt = self.lsm.put(path, record)
        yield from self._charge_write(receipt)
        if FileType(ftype_value) is FileType.DIRECTORY:
            self.deployment.dirmap[path] = record
        self.deployment.note_insert(parent_of(path))
        return record

    def handle_bulk_insert(self, items: List[Tuple[str, Dict]]
                           ) -> Generator[Event, Any, int]:
        """Bulk insertion: one batch, one WAL sync (§II.B)."""
        receipt = self.lsm.put_batch(items)
        c = self.costs
        cost = c.indexfs_op_cpu + c.lsm_memtable_op * len(items)
        cost += c.lsm_wal_append  # single group sync
        cost += c.lsm_flush_per_entry * receipt.flushed_entries
        cost += c.lsm_compact_per_entry * receipt.compacted_entries
        yield cost
        for path, record in items:
            if record["ftype"] == FileType.DIRECTORY.value:
                self.deployment.dirmap[path] = record
            self.deployment.note_insert(parent_of(path))
        return len(items)

    def handle_unlink(self, path: str, uid: int,
                      gid: int) -> Generator[Event, Any, None]:
        record = yield from self._get(path)
        if record is None:
            raise FileNotFound(path)
        if record["ftype"] == FileType.DIRECTORY.value:
            from repro.dfs.errors import IsADirectory
            raise IsADirectory(path)
        receipt = self.lsm.delete(path)
        yield from self._charge_write(receipt)
        self.deployment.note_remove(parent_of(path))

    def handle_rmdir_local(self, path: str) -> Generator[Event, Any, int]:
        """Remove every record in this partition under ``path``."""
        doomed = [k for k, _ in self.lsm.scan_prefix(path.rstrip("/") + "/")]
        own = self.lsm.get(path)
        yield from self._charge_read(own)
        removed = 0
        for key in doomed:
            receipt = self.lsm.delete(key)
            yield from self._charge_write(receipt, synced=False)
            removed += 1
        if own.found:
            receipt = self.lsm.delete(path)
            yield from self._charge_write(receipt)
            removed += 1
        self.deployment.dirmap.pop(path, None)
        return removed

    def handle_readdir(self, path: str) -> Generator[Event, Any, List[str]]:
        entries = list(self.lsm.scan_prefix(path.rstrip("/") + "/"))
        c = self.costs
        yield (c.indexfs_op_cpu + c.lsm_memtable_op +
               c.lsm_sstable_read +
               c.lsm_bloom_check * len(entries))
        names = []
        prefix_len = len(path.rstrip("/")) + 1
        for key, _record in entries:
            rest = key[prefix_len:]
            if "/" not in rest:
                names.append(rest)
        return sorted(names)


@dataclass
class _LeaseEntry:
    record: Dict
    expires_at: float


class IndexFSClient:
    """Client with stateless (lease-based) directory-entry caching."""

    def __init__(self, deployment: "IndexFS", node: Node,
                 uid: int = 1000, gid: int = 1000):
        self.fs = deployment
        self.node = node
        self.env = deployment.cluster.env
        self.costs = deployment.cluster.costs
        self.uid = uid
        self.gid = gid
        self._dentry_cache: Dict[str, _LeaseEntry] = {}
        self._bulk_buffer: List[Tuple[str, Dict]] = []
        self.bulk_mode = False
        self.bulk_batch_size = 128
        # stats
        self.rpcs_sent = 0
        self.lease_hits = 0
        self.lease_renewals = 0

    # -- traversal with leases ------------------------------------------------
    def _resolve_dirs(self, path: str) -> Generator[Event, Any, None]:
        """Validate every ancestor directory, using leases when fresh."""
        parts = split_path(path)
        current = ""
        for name in parts[:-1]:
            current += "/" + name
            entry = self._dentry_cache.get(current)
            if entry is not None and entry.expires_at > self.env.now:
                self.lease_hits += 1
                record = entry.record
            else:
                record = yield from self._probe_lookup(current)
                self.lease_renewals += 1
                self._dentry_cache[current] = _LeaseEntry(
                    record, self.env.now + self.fs.lease_ttl)
            if record["ftype"] != FileType.DIRECTORY.value:
                raise NotADirectory(current)
            if not check_mode_bits(record["mode"], self.uid, self.gid,
                                   record["uid"], record["gid"],
                                   AccessMode.EXECUTE):
                raise PermissionDenied(current, "search permission")

    def _probe_lookup(self, path: str) -> Generator[Event, Any, Dict]:
        """GIGA+ lookup: probe partition generations newest-first."""
        chain = self.fs.probe_chain(path)
        for i, server in enumerate(chain):
            self.rpcs_sent += 1
            try:
                record = yield from server.request(self.node, "lookup", path)
                return record
            except FileNotFound:
                if i == len(chain) - 1:
                    raise
        raise FileNotFound(path)  # pragma: no cover - chain never empty

    # -- operations ----------------------------------------------------------------
    def mkdir(self, path: str,
              mode: int = 0o755) -> Generator[Event, Any, Inode]:
        path = normalize_path(path)
        yield from self._resolve_dirs(path)
        server = self.fs.server_for(path)
        self.rpcs_sent += 1
        record = yield from server.request(
            self.node, "create", path, FileType.DIRECTORY.value, mode,
            self.uid, self.gid)
        return Inode.from_record(record)

    def create(self, path: str,
               mode: int = 0o644) -> Generator[Event, Any, Inode]:
        path = normalize_path(path)
        if self.bulk_mode:
            record = yield from self._bulk_create(path, mode)
            return Inode.from_record(record)
        yield from self._resolve_dirs(path)
        server = self.fs.server_for(path)
        self.rpcs_sent += 1
        record = yield from server.request(
            self.node, "create", path, FileType.FILE.value, mode,
            self.uid, self.gid)
        return Inode.from_record(record)

    def _bulk_create(self, path: str,
                     mode: int) -> Generator[Event, Any, Dict]:
        record = _record(FileType.FILE, mode, self.uid, self.gid,
                         ino=-1, now=self.env.now)
        self._bulk_buffer.append((path, record))
        if self.costs.client_op_cpu > 0:
            yield self.costs.client_op_cpu
        if len(self._bulk_buffer) >= self.bulk_batch_size:
            yield from self.flush_bulk()
        return record

    def flush_bulk(self) -> Generator[Event, Any, int]:
        """Ship buffered creates to their servers, one batch per server."""
        if not self._bulk_buffer:
            return 0
        by_server: Dict[Any, List[Tuple[str, Dict]]] = {}
        for path, record in self._bulk_buffer:
            by_server.setdefault(self.fs.server_for(path), []).append(
                (path, record))
        self._bulk_buffer = []
        total = 0
        for server, items in by_server.items():
            self.rpcs_sent += 1
            n = yield from server.request(self.node, "bulk_insert", items)
            total += n
        return total

    def getattr(self, path: str) -> Generator[Event, Any, Inode]:
        path = normalize_path(path)
        yield from self._resolve_dirs(path)
        record = yield from self._probe_lookup(path)
        return Inode.from_record(record)

    stat = getattr

    def exists(self, path: str) -> Generator[Event, Any, bool]:
        try:
            yield from self.getattr(path)
            return True
        except FileNotFound:
            return False

    def unlink(self, path: str) -> Generator[Event, Any, None]:
        path = normalize_path(path)
        yield from self._resolve_dirs(path)
        chain = self.fs.probe_chain(path)
        for i, server in enumerate(chain):
            self.rpcs_sent += 1
            try:
                yield from server.request(self.node, "unlink", path,
                                          self.uid, self.gid)
                return
            except FileNotFound:
                if i == len(chain) - 1:
                    raise

    rm = unlink

    def rmdir(self, path: str) -> Generator[Event, Any, int]:
        """Recursive removal: every server drops its partition's slice."""
        path = normalize_path(path)
        yield from self._resolve_dirs(path)
        total = 0
        for server in self.fs.servers:
            self.rpcs_sent += 1
            n = yield from server.request(self.node, "rmdir_local", path)
            total += n
        self._dentry_cache.pop(path, None)
        self.fs.dir_partitions.pop(path, None)
        self.fs.dir_entry_counts.pop(path, None)
        return total

    def readdir(self, path: str) -> Generator[Event, Any, List[str]]:
        """Directory listing: gather from every partition of the directory
        (a split directory spreads its entries over several servers)."""
        path = normalize_path(path)
        yield from self._resolve_dirs(path + "/x")  # validate chain incl. path
        names: List[str] = []
        for server in self.fs.servers_of_dir(path):
            self.rpcs_sent += 1
            part = yield from server.request(self.node, "readdir", path)
            names.extend(part)
        return sorted(set(names))


class IndexFS:
    """Deployment: servers co-located with client nodes (paper §IV)."""

    def __init__(self, cluster: Cluster, server_nodes: List[Node],
                 lease_ttl: float = 200e-3, memtable_limit: int = 4096,
                 split_threshold: int = 2000):
        if not server_nodes:
            raise ValueError("need at least one server node")
        self.cluster = cluster
        self.lease_ttl = lease_ttl
        self.split_threshold = split_threshold
        self.servers = [
            IndexFSServer(cluster, node, name=f"ifs{i}",
                          memtable_limit=memtable_limit)
            for i, node in enumerate(server_nodes)
        ]
        for server in self.servers:
            server.deployment = self
        # Shared directory map = the cluster-wide GIGA+-style directory
        # index (every server learns new directories; root pre-exists).
        self.dirmap: Dict[str, Dict] = {
            "/": _record(FileType.DIRECTORY, 0o777, 0, 0, 1, 0.0)
        }
        # GIGA+ state: per-directory partition count (power of two) and
        # entry counter driving splits.
        self.dir_partitions: Dict[str, int] = {}
        self.dir_entry_counts: Dict[str, int] = {}
        self.splits = 0

    # -- GIGA+-style placement ---------------------------------------------
    # Paths arrive normalized: ``admin_mkdir`` and the client entries
    # validate once; these helpers trust that contract.
    def partitions_of(self, dir_path: str) -> int:
        return self.dir_partitions.get(dir_path, 1)

    def server_for_entry(self, dir_path: str, name: str,
                         nparts: Optional[int] = None) -> IndexFSServer:
        """Owner of entry ``name`` in ``dir_path`` at partition count
        ``nparts`` (defaults to the directory's current count)."""
        if nparts is None:
            nparts = self.partitions_of(dir_path)
        bucket = stable_hash64(name) % nparts
        idx = (stable_hash64(dir_path) + bucket) % len(self.servers)
        return self.servers[idx]

    def server_for(self, path: str) -> IndexFSServer:
        """Current-generation owner of ``path``."""
        parts = split_path(path)
        if not parts:
            return self.servers[0]
        return self.server_for_entry(parent_of(path), parts[-1])

    def probe_chain(self, path: str) -> List[IndexFSServer]:
        """Servers to probe for ``path``, newest partition generation
        first, halving the partition count each step (GIGA+ lookup)."""
        parts = split_path(path)
        if not parts:
            return [self.servers[0]]
        parent = parent_of(path)
        name = parts[-1]
        chain: List[IndexFSServer] = []
        nparts = self.partitions_of(parent)
        while True:
            server = self.server_for_entry(parent, name, nparts)
            if server not in chain:
                chain.append(server)
            if nparts == 1:
                break
            nparts //= 2
        return chain

    def note_insert(self, dir_path: str) -> None:
        """Count an insert; double the directory's partitions on overflow."""
        count = self.dir_entry_counts.get(dir_path, 0) + 1
        self.dir_entry_counts[dir_path] = count
        nparts = self.partitions_of(dir_path)
        if (count > self.split_threshold * nparts
                and nparts < len(self.servers)):
            self.dir_partitions[dir_path] = nparts * 2
            self.splits += 1

    def note_remove(self, dir_path: str) -> None:
        if dir_path in self.dir_entry_counts:
            self.dir_entry_counts[dir_path] = max(
                0, self.dir_entry_counts[dir_path] - 1)

    def servers_of_dir(self, dir_path: str) -> List[IndexFSServer]:
        """Every server that may hold entries of ``dir_path`` (for scans)."""
        out: List[IndexFSServer] = []
        nparts = self.partitions_of(dir_path)
        for bucket in range(nparts):
            server = self.servers[(stable_hash64(dir_path) + bucket)
                                  % len(self.servers)]
            if server not in out:
                out.append(server)
        return out

    def client(self, node: Node, uid: int = 1000,
               gid: int = 1000) -> IndexFSClient:
        return IndexFSClient(self, node, uid=uid, gid=gid)

    def admin_mkdir(self, path: str, mode: int = 0o777, uid: int = 0,
                    gid: int = 0) -> None:
        """Zero-cost administrative directory creation (experiment setup)."""
        path = normalize_path(path)
        record = _record(FileType.DIRECTORY, mode, uid, gid,
                         self.servers[0].alloc_ino(), 0.0)
        self.server_for(path).lsm.put(path, record)
        self.dirmap[path] = record
        self.note_insert(parent_of(path) if split_path(path) else "/")

    def total_entries(self) -> int:
        return sum(s.lsm.total_live_keys() for s in self.servers)
