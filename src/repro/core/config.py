"""Pacon configuration (the paper's initialization parameters, §III.B).

An application configures Pacon with its workspace path and the nodes it
runs on; everything else has defaults matching the prototype in the paper
(4 KB small-file threshold, parent checking on, Linux-like default
permissions).

Why each field stays settable:

* ``workspace``, ``uid``/``gid``, ``permissions``, ``small_file_threshold``,
  ``parent_check`` (§III.C) and ``cache_capacity_bytes`` are the paper's
  initialization parameters and deployment settings, so they stay even
  where no bench moves them;
* ``commit_batch_size`` is swept by Fig. 7's batching row and the
  staleness row;
* ``autoscale`` carries the watermarks the elastic row sets and
  ``tests/core/test_autoscale.py`` uses to drive the controller's edge
  cases.

Of the bench testbed's knobs, ``make_testbed`` keeps ``n_mds`` (the
ablation row) and ``costs`` (the sensitivity row).

An application that wants periodic checkpoints starts them itself
(§III.G: checkpointing is optional and application-driven):
``env.process(deployment.checkpointer(region).run(interval))``.
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
    #: A drained segment of more than one op also cancels a create/mkdir
    #: and a same-generation rm that meet inside it, so size 1 commits
    #: every op without coalescing.
    commit_batch_size: int = 16

    #: The elastic controller's knobs (:mod:`repro.core.autoscale`).
    autoscale: AutoscalePolicy = field(default_factory=AutoscalePolicy)

    def __post_init__(self) -> None:
        if self.small_file_threshold < 0:
            raise ValueError("small_file_threshold must be >= 0")
        if self.cache_capacity_bytes <= 0:
            raise ValueError("cache_capacity_bytes must be positive")
        if self.commit_batch_size < 1:
            raise ValueError("commit_batch_size must be >= 1")
