"""Pacon configuration (the paper's initialization parameters, §III.B).

An application configures Pacon with its workspace path and the nodes it
runs on; everything else has defaults matching the prototype in the paper
(4 KB small-file threshold, parent checking on, Linux-like default
permissions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.autoscale import AutoscalePolicy
from repro.core.permissions import PermissionSpec

__all__ = ["PaconConfig"]


@dataclass
class PaconConfig:
    """Per-region configuration."""

    #: Root directory of the application's workspace (the consistent region).
    workspace: str = "/workspace"

    #: System user the application's clients run as (§II.A: one user per app).
    uid: int = 1000
    gid: int = 1000

    #: Files up to this many bytes (metadata + data) are stored inline with
    #: their metadata in the distributed cache (§III.D.2).
    small_file_threshold: int = 4 * 1024

    #: Check that the parent directory exists before create/mkdir.  The
    #: paper allows applications that guarantee correct creation order to
    #: turn this off (§III.C, last paragraph).
    parent_check: bool = True

    #: Predefined permission information for the workspace (§III.C).  When
    #: None, Pacon applies Linux-like defaults: everything in the workspace
    #: readable/writable/executable by the creating user.
    permissions: Optional[PermissionSpec] = None

    #: Distributed-cache capacity per node, in bytes (§III.F sizes a 500 MB
    #: cache for >10M entries).
    cache_capacity_bytes: int = 512 * 1024 * 1024

    #: Messages a commit process drains per wakeup, through one drain
    #: path at every size.  1 is the paper's one-message-per-wakeup
    #: subscriber; larger values amortize the queue pop and let
    #: same-directory operations share one MDS round trip
    #: (``DFSClient.commit_batch``).  Convergence (§III.E) is unaffected:
    #: barrier messages cut batches and the discard rule stays per-op.
    commit_batch_size: int = 16

    #: Cancel a create/mkdir and a same-generation rm that meet inside one
    #: drained batch — neither ever reaches the MDS.
    commit_coalesce: bool = True

    #: Optional bound on each node's commit-queue depth.  When set,
    #: ``publish`` stalls the client (a visible, metered delay) until the
    #: commit process drains below the bound, instead of buffering
    #: unboundedly.  None keeps the paper's unbounded ZeroMQ behaviour.
    commit_queue_capacity: Optional[int] = None

    #: Optional periodic checkpoint interval in simulated seconds (§III.G;
    #: checkpointing is optional and application-driven).
    checkpoint_interval: Optional[float] = None

    #: The elastic controller's knobs (:mod:`repro.core.autoscale`).
    autoscale: AutoscalePolicy = field(default_factory=AutoscalePolicy)

    def __post_init__(self) -> None:
        if self.small_file_threshold < 0:
            raise ValueError("small_file_threshold must be >= 0")
        if self.cache_capacity_bytes <= 0:
            raise ValueError("cache_capacity_bytes must be positive")
        if self.commit_batch_size < 1:
            raise ValueError("commit_batch_size must be >= 1")
        if self.commit_queue_capacity is not None \
                and self.commit_queue_capacity < 1:
            raise ValueError("commit_queue_capacity must be >= 1 or None")
        if self.checkpoint_interval is not None \
                and self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive or None")
