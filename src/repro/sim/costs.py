"""Cost model: every simulated-time constant in one tunable place.

All times are seconds of simulated time; sizes are bytes.  Defaults are
calibrated (see DESIGN.md §6 and EXPERIMENTS.md) so the relative factors in
the paper's figures land in-band on the simulated TIANHE-II-like cluster:
an IB-class fabric, an NVMe-backed single-MDS BeeGFS, LevelDB-class LSM
costs for IndexFS, and Memcached-class in-memory KV costs for Pacon's
distributed cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CostModel"]

KiB = 1024
MiB = 1024 * 1024


@dataclass
class CostModel:
    """Tunable latency/throughput constants for the simulated cluster."""

    # --- network (TH-Express-class fabric, kernel TCP stack) -----------
    net_latency: float = 10e-6          # one-way propagation, node to node
    net_msg_overhead: float = 6.5e-6    # per-message CPU/NIC serialization
    net_bandwidth: float = 5 * 1024 * MiB  # bytes/second
    # Same-node services still talk through the kernel TCP stack (Pacon's
    # prototype uses Memcached/ZeroMQ over sockets), so loopback is nearly
    # as expensive as one fabric hop.
    local_loopback: float = 22e-6       # same-node hop through the stack
    nic_channels: int = 3               # multi-queue NIC send/recv channels

    # --- generic client-side costs --------------------------------------
    client_op_cpu: float = 0.8e-6       # per-op bookkeeping on the client

    # --- in-memory KV (Memcached-class) ---------------------------------
    memkv_op: float = 1.8e-6            # hash-table get/put/delete/cas
    memkv_scan_per_item: float = 0.25e-6
    memkv_workers: int = 4              # memcached worker threads per node

    # --- centralized MDS (BeeGFS-class on NVMe) --------------------------
    mds_workers: int = 4                # concurrent request slots
    mds_op_service: float = 290e-6      # journaled metadata mutation
    mds_read_service: float = 35e-6     # getattr served from MDS
    mds_lookup_service: float = 22e-6   # single dentry lookup/revalidation
    mds_readdir_base: float = 60e-6
    mds_readdir_per_entry: float = 0.6e-6
    mds_remove_per_entry: float = 8e-6  # recursive rmdir per removed inode
    mds_inode_cache_entries: int = 4096  # MDS dentry/inode cache capacity
    mds_inode_cache_miss: float = 85e-6  # disk read on an MDS cache miss

    # --- LSM / LevelDB-class KV (IndexFS metadata backend) ---------------
    # The paper stores IndexFS's LevelDB tables *on BeeGFS*, so log appends
    # and table reads go through the DFS data path — far costlier than a
    # local-disk LevelDB.  These constants reflect that deployment.
    lsm_memtable_op: float = 4e-6
    lsm_wal_append: float = 200e-6      # log append onto the DFS-backed file
    lsm_sstable_read: float = 120e-6    # table probe through the DFS
    lsm_bloom_check: float = 0.4e-6
    lsm_flush_per_entry: float = 2.5e-6
    lsm_compact_per_entry: float = 3.0e-6

    # --- IndexFS server ---------------------------------------------------
    indexfs_workers: int = 2            # per co-located server process
    indexfs_op_cpu: float = 3e-6        # request decode/validate

    # --- data path (striped object storage) ------------------------------
    dataserver_workers: int = 8
    disk_seek: float = 80e-6            # NVMe random access setup
    disk_bandwidth: float = 1800 * MiB  # bytes/second per data server
    stripe_size: int = 512 * KiB

    # --- Pacon-specific ----------------------------------------------------
    commit_queue_push: float = 14e-6    # publish into the commit queue (ZMQ)
    commit_queue_pop: float = 1.0e-6
    #: Fraction of ``mds_op_service`` saved by every op after the first in
    #: a same-parent ``commit_batch`` request: the dentry lookup, parent
    #: revalidation, and journal setup are paid once per batch, so the
    #: follow-on mutations in the same directory ride the warm state.
    mds_batch_lookup_discount: float = 0.30
    permission_check_batch: float = 0.3e-6  # one batch permission match
    permission_check_special_per_item: float = 0.05e-6

    # --- metadata record sizes (bytes on the wire / in caches) ------------
    metadata_record_size: int = 240
    request_header_size: int = 96

    def __post_init__(self) -> None:
        # Service times reach the kernel as bare ``yield <delay>`` sleeps,
        # which must be floats: keep ``CostModel(memkv_op=0)`` working.
        for name, f in self.__dataclass_fields__.items():
            if f.type == "float":
                setattr(self, name, float(getattr(self, name)))

    def with_overrides(self, **kw) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)

    # --- presets ----------------------------------------------------------
    @classmethod
    def zero(cls) -> "CostModel":
        """All costs zero — pure-semantics runs for unit tests."""
        numeric = {}
        for name, f in cls.__dataclass_fields__.items():
            if f.type == "float":
                numeric[name] = 0.0
        return cls(**numeric)

    def disk_transfer_time(self, nbytes: int) -> float:
        return nbytes / self.disk_bandwidth
