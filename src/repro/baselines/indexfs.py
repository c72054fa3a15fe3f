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
  SSTable probes, flushed and compacted entries) plus one write-ahead-log
  append per write, so LSM read amplification and flush/compaction
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

The client serves the ops the paper measures IndexFS with -- mkdir,
create and getattr (mdtest's stat phase) -- plus ``unlink``/``rm`` for
mdtest's optional rm phase.  There is no rmdir, readdir or rename.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from repro.dfs.errors import (
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
    PermissionDenied,
)
from repro.dfs.inode import _FTYPE_OF_VALUE, FileType, Inode, check_mode_bits
from repro.dfs.namespace import (
    _SEARCH,
    _WRITE_SEARCH,
    normalize_path,
    parent_of,
)
from repro.kvstore.dht import stable_hash64
from repro.kvstore.lsm import LSMTree, ReadReceipt, WriteReceipt
from repro.sim.core import Event
from repro.sim.network import Cluster, Node, Service

__all__ = ["IndexFS", "IndexFSServer", "IndexFSClient"]

#: How long a client's cached dentry stays fresh (200 ms).
LEASE_TTL = 200e-3
#: Entries per partition past which a directory doubles its partitions
#: (GIGA+ incremental splitting).
SPLIT_THRESHOLD = 2000

# Wire values, resolved once: records carry ``ftype`` as the value string.
_DIR = FileType.DIRECTORY.value
_FILE = FileType.FILE.value


def _record(ftype: str, mode: int, uid: int, gid: int, ino: int,
            now: float) -> Dict[str, Any]:
    return {"ino": ino, "ftype": ftype, "mode": mode, "uid": uid,
            "gid": gid, "size": 0, "ctime": now, "mtime": now,
            "nlink": 1, "inline_data": None}


class IndexFSServer(Service):
    """One metadata server: an LSM tree plus request handlers.

    A handler charges each LSM access by yielding its cost, which
    ``_read_cost`` and ``_write_cost`` compute from the tree's receipt.
    """

    def __init__(self, cluster: Cluster, node: Node, name: str = "ifs",
                 memtable_limit: int = 4096):
        super().__init__(cluster, node, name,
                         workers=cluster.costs.indexfs_workers)
        self.lsm = LSMTree(memtable_limit=memtable_limit, name=name)
        self._next_ino = 1

    def alloc_ino(self) -> int:
        self._next_ino += 1
        return self._next_ino

    # -- cost of one LSM access ----------------------------------------------
    def _read_cost(self, receipt: ReadReceipt) -> float:
        c = self.costs
        cost = c.indexfs_op_cpu + c.lsm_memtable_op
        cost += c.lsm_bloom_check * receipt.bloom_checks
        cost += c.lsm_sstable_read * receipt.tables_probed
        return cost

    def _write_cost(self, receipt: WriteReceipt) -> float:
        c = self.costs
        cost = c.indexfs_op_cpu + c.lsm_memtable_op + c.lsm_wal_append
        cost += c.lsm_flush_per_entry * receipt.flushed_entries
        cost += c.lsm_compact_per_entry * receipt.compacted_entries
        return cost

    # -- handlers ---------------------------------------------------------------
    def handle_lookup(self, path: str) -> Generator[Event, Any, Dict]:
        receipt = self.lsm.get(path)
        yield self._read_cost(receipt)
        if receipt.found:
            return receipt.value
        if path == "/":
            # The root lives only in the directory index every server
            # keeps, never in an LSM tree.
            return self.deployment.dirmap["/"]
        raise FileNotFound(path)

    def handle_create(self, path: str, ftype_value: str, mode: int, uid: int,
                      gid: int) -> Generator[Event, Any, Dict]:
        # Parent existence check against the shared directory map (the
        # GIGA+-style index every server keeps a copy of).
        parent = parent_of(path)
        parent_record = self.deployment.dirmap.get(parent)
        if parent_record is None:
            raise FileNotFound(parent)
        if parent_record["ftype"] != _DIR:
            raise NotADirectory(parent)
        if not check_mode_bits(parent_record["mode"], uid, gid,
                               parent_record["uid"], parent_record["gid"],
                               _WRITE_SEARCH):
            raise PermissionDenied(path, "parent write")
        receipt = self.lsm.get(path)
        yield self._read_cost(receipt)
        if receipt.found:
            raise FileExists(path)
        if ftype_value not in _FTYPE_OF_VALUE:
            FileType(ftype_value)  # raises ValueError for the unknown value
        record = _record(ftype_value, mode, uid, gid, self.alloc_ino(),
                         self.env.now)
        yield self._write_cost(self.lsm.put(path, record))
        if ftype_value == _DIR:
            self.deployment.dirmap[path] = record
        self.deployment.note_insert(parent)
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
            if record["ftype"] == _DIR:
                self.deployment.dirmap[path] = record
            self.deployment.note_insert(parent_of(path))
        return len(items)

    def handle_unlink(self, path: str, uid: int,
                      gid: int) -> Generator[Event, Any, None]:
        parent = parent_of(path)  # the root has none: InvalidPath
        receipt = self.lsm.get(path)
        yield self._read_cost(receipt)
        if not receipt.found:
            raise FileNotFound(path)
        if receipt.value["ftype"] == _DIR:
            raise IsADirectory(path)
        yield self._write_cost(self.lsm.delete(path))
        self.deployment.note_remove(parent)


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
        #: Directory path -> ``(record, lease expiry)``.
        self._dentry_cache: Dict[str, Tuple[Dict, float]] = {}
        self._bulk_buffer: List[Tuple[str, Dict]] = []
        self.bulk_mode = False
        self.bulk_batch_size = 128
        # stats
        self.rpcs_sent = 0
        self.lease_hits = 0
        self.lease_renewals = 0

    # -- traversal with leases ------------------------------------------------
    def _resolve_dirs(self, path: str) -> Generator[Event, Any, None]:
        """Validate every ancestor directory, using leases when fresh.

        The ancestors are the prefixes of ``path`` that end before each of
        its ``/`` after the first.
        """
        cache = self._dentry_cache
        end = path.find("/", 1)
        while end != -1:
            current = path[:end]
            entry = cache.get(current)
            if entry is not None and entry[1] > self.env.now:
                self.lease_hits += 1
                record = entry[0]
            else:
                record = yield from self._probe_lookup(current)
                self.lease_renewals += 1
                cache[current] = (record, self.env.now + LEASE_TTL)
            if record["ftype"] != _DIR:
                raise NotADirectory(current)
            if not check_mode_bits(record["mode"], self.uid, self.gid,
                                   record["uid"], record["gid"], _SEARCH):
                raise PermissionDenied(current, "search permission")
            end = path.find("/", end + 1)

    def _probe_lookup(self, path: str) -> Generator[Event, Any, Dict]:
        """GIGA+ lookup: probe partition generations newest-first.

        With one generation, the common case, the server's request
        generator is returned as is, so every resume of the lookup skips
        a client frame (as ``DistributedCache.get`` does)."""
        chain = self.fs.probe_chain(path)
        if len(chain) == 1:
            self.rpcs_sent += 1
            return chain[0].request(self.node, "lookup", path)
        return self._probe_generations(chain, path)

    def _probe_generations(self, chain: List[IndexFSServer],
                           path: str) -> Generator[Event, Any, Dict]:
        for server in chain[:-1]:
            self.rpcs_sent += 1
            try:
                return (yield from server.request(self.node, "lookup", path))
            except FileNotFound:
                pass
        self.rpcs_sent += 1
        return (yield from chain[-1].request(self.node, "lookup", path))

    # -- operations ----------------------------------------------------------------
    def mkdir(self, path: str,
              mode: int = 0o755) -> Generator[Event, Any, Inode]:
        path = normalize_path(path)
        yield from self._resolve_dirs(path)
        server = self.fs.server_for(path)
        self.rpcs_sent += 1
        record = yield from server.request(
            self.node, "create", path, _DIR, mode, self.uid, self.gid)
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
            self.node, "create", path, _FILE, mode, self.uid, self.gid)
        return Inode.from_record(record)

    def _bulk_create(self, path: str,
                     mode: int) -> Generator[Event, Any, Dict]:
        record = _record(_FILE, mode, self.uid, self.gid, ino=-1,
                         now=self.env.now)
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

    def unlink(self, path: str) -> Generator[Event, Any, None]:
        path = normalize_path(path)
        yield from self._resolve_dirs(path)
        chain = self.fs.probe_chain(path)
        for i, server in enumerate(chain):
            self.rpcs_sent += 1
            try:
                yield from server.request(self.node, "unlink", path,
                                          self.uid, self.gid)
                self._dentry_cache.pop(path, None)
                return
            except FileNotFound:
                if i == len(chain) - 1:
                    raise

    rm = unlink



class IndexFS:
    """Deployment: servers co-located with client nodes (paper §IV)."""

    def __init__(self, cluster: Cluster, server_nodes: List[Node],
                 memtable_limit: int = 4096):
        if not server_nodes:
            raise ValueError("need at least one server node")
        self.cluster = cluster
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
            "/": _record(_DIR, 0o777, 0, 0, 1, 0.0)
        }
        # GIGA+ state: per-directory partition count (power of two) and
        # entry counter driving splits.
        self.dir_partitions: Dict[str, int] = {}
        self.dir_entry_counts: Dict[str, int] = {}
        self.splits = 0
        # md5 of each directory path, taken once: placement hashes the
        # parent of every entry it places.
        self._dir_hashes: Dict[str, int] = {}

    # -- GIGA+-style placement ---------------------------------------------
    # Paths arrive normalized: ``admin_mkdir`` and the client entries
    # validate once; these helpers trust that contract.
    def _dir_hash(self, dir_path: str) -> int:
        dir_hash = self._dir_hashes.get(dir_path)
        if dir_hash is None:
            dir_hash = self._dir_hashes[dir_path] = stable_hash64(dir_path)
        return dir_hash

    def server_for_entry(self, dir_path: str, name: str) -> IndexFSServer:
        """Owner of entry ``name`` in ``dir_path`` at the directory's
        current partition count."""
        servers = self.servers
        bucket = stable_hash64(name) % self.dir_partitions.get(dir_path, 1)
        return servers[(self._dir_hash(dir_path) + bucket) % len(servers)]

    def server_for(self, path: str) -> IndexFSServer:
        """Current-generation owner of ``path``."""
        if path == "/":
            return self.servers[0]
        cut = path.rfind("/")
        return self.server_for_entry(path[:cut] or "/", path[cut + 1:])

    def probe_chain(self, path: str) -> List[IndexFSServer]:
        """Servers to probe for ``path``, newest partition generation
        first, halving the partition count each step (GIGA+ lookup)."""
        if path == "/":
            return [self.servers[0]]
        cut = path.rfind("/")
        parent = path[:cut] or "/"
        servers = self.servers
        # ``server_for_entry`` per generation, with each md5 taken once.
        name_hash = stable_hash64(path[cut + 1:])
        dir_hash = self._dir_hash(parent)
        chain: List[IndexFSServer] = []
        nparts = self.dir_partitions.get(parent, 1)
        while True:
            server = servers[(dir_hash + name_hash % nparts) % len(servers)]
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
        nparts = self.dir_partitions.get(dir_path, 1)
        if (count > SPLIT_THRESHOLD * nparts
                and nparts < len(self.servers)):
            self.dir_partitions[dir_path] = nparts * 2
            self.splits += 1

    def note_remove(self, dir_path: str) -> None:
        if dir_path in self.dir_entry_counts:
            self.dir_entry_counts[dir_path] = max(
                0, self.dir_entry_counts[dir_path] - 1)

    def client(self, node: Node, uid: int = 1000,
               gid: int = 1000) -> IndexFSClient:
        return IndexFSClient(self, node, uid=uid, gid=gid)

    def admin_mkdir(self, path: str, uid: int = 0, gid: int = 0) -> None:
        """Zero-cost administrative directory creation (experiment setup),
        mode 0o777."""
        path = normalize_path(path)
        record = _record(_DIR, 0o777, uid, gid, self.servers[0].alloc_ino(),
                         0.0)
        self.server_for(path).lsm.put(path, record)
        self.dirmap[path] = record
        self.note_insert(parent_of(path) if path != "/" else "/")

    def total_entries(self) -> int:
        return sum(s.lsm.total_live_keys() for s in self.servers)
