"""Pacon configuration (the paper's initialization parameters, §III.B).

An application configures Pacon with its workspace path and the nodes it
runs on; everything else has defaults matching the prototype in the paper
(4 KB small-file threshold, parent checking on, Linux-like default
permissions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

    #: Eviction trips when a shard's usage crosses the high watermark and
    #: frees entries until usage falls to the target (§III.F).
    eviction_high_watermark: float = 0.90
    eviction_target: float = 0.70

    #: Delay between commit retries when an operation does not yet satisfy
    #: the namespace conventions (parent not committed yet).
    commit_retry_delay: float = 50e-6

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

    #: Clients per node (used when a deployment auto-creates clients).
    clients_per_node: int = 20

    #: Hierarchical aggregation: each client object stands in for this
    #: many statistically identical application processes.  1 (default)
    #: gives one DES process per client — the faithful model every paper
    #: figure uses.  Larger values make deployments hand out
    #: :class:`~repro.core.client.AggregateClient` instances whose ops
    #: are counted ``aggregate_multiplier`` times, extending client-count
    #: sweeps 10–100× at the same event-heap footprint (opt-in; used only
    #: by the aggregate scalability scenario).
    aggregate_multiplier: int = 1

    # -- autoscaler (repro.core.autoscale) --------------------------------
    #: Pool bounds for the elastic controller: it never shrinks the
    #: region below ``autoscale_min_nodes`` or grows beyond
    #: ``autoscale_max_nodes``.
    autoscale_min_nodes: int = 1
    autoscale_max_nodes: int = 16

    #: Controller tick interval (simulated seconds) and the minimum gap
    #: between two scaling actions.  The cooldown is what keeps one burst
    #: from triggering a grow/retire/grow oscillation while migrations
    #: are still settling.
    autoscale_interval: float = 1e-3
    autoscale_cooldown: float = 3e-3

    #: Utilization watermarks over the hottest node's busiest resource
    #: (CPU, NIC, or cache-shard worker pool), windowed per tick.  Scale
    #: up above high, down below low — the gap is the hysteresis band.
    autoscale_util_high: float = 0.75
    autoscale_util_low: float = 0.20

    #: Commit backlog watermarks, in queued messages per region node.
    autoscale_backlog_high: float = 32.0
    autoscale_backlog_low: float = 2.0

    #: Consecutive over/under-watermark ticks required before acting —
    #: the temporal half of the hysteresis (shrinking demands a longer
    #: streak than growing, so transient lulls don't flap the pool).
    autoscale_up_consecutive: int = 2
    autoscale_down_consecutive: int = 4

    #: Optional SLO hook: when set, the controller also evaluates a
    #: burn-rate objective over ``consistency.pending_age`` (threshold =
    #: this value, budget = ``autoscale_burn_budget``) and forces a
    #: scale-up when the error budget is burning on every window —
    #: regardless of the utilization streak, though still subject to
    #: cooldown and the max bound.  None disables the SLO trigger.
    autoscale_burn_threshold: Optional[float] = None
    autoscale_burn_budget: float = 0.25

    def __post_init__(self) -> None:
        if self.small_file_threshold < 0:
            raise ValueError("small_file_threshold must be >= 0")
        if not (0.0 < self.eviction_target
                < self.eviction_high_watermark <= 1.0):
            raise ValueError(
                "need 0 < eviction_target < eviction_high_watermark <= 1")
        if self.cache_capacity_bytes <= 0:
            raise ValueError("cache_capacity_bytes must be positive")
        if self.commit_batch_size < 1:
            raise ValueError("commit_batch_size must be >= 1")
        if self.commit_queue_capacity is not None \
                and self.commit_queue_capacity < 1:
            raise ValueError("commit_queue_capacity must be >= 1 or None")
        if self.aggregate_multiplier < 1:
            raise ValueError("aggregate_multiplier must be >= 1")
        if self.autoscale_min_nodes < 1:
            raise ValueError("autoscale_min_nodes must be >= 1")
        if self.autoscale_max_nodes < self.autoscale_min_nodes:
            raise ValueError(
                "autoscale_max_nodes must be >= autoscale_min_nodes")
        if self.autoscale_interval <= 0 or self.autoscale_cooldown < 0:
            raise ValueError("autoscale_interval must be > 0 and "
                             "autoscale_cooldown >= 0")
        if not (0.0 <= self.autoscale_util_low
                < self.autoscale_util_high <= 1.0):
            raise ValueError(
                "need 0 <= autoscale_util_low < autoscale_util_high <= 1")
        if not (0.0 <= self.autoscale_backlog_low
                < self.autoscale_backlog_high):
            raise ValueError("need 0 <= autoscale_backlog_low "
                             "< autoscale_backlog_high")
        if self.autoscale_up_consecutive < 1 \
                or self.autoscale_down_consecutive < 1:
            raise ValueError("autoscale_*_consecutive must be >= 1")
        if self.autoscale_burn_threshold is not None \
                and self.autoscale_burn_threshold <= 0:
            raise ValueError(
                "autoscale_burn_threshold must be > 0 or None")
        if self.autoscale_burn_budget <= 0:
            raise ValueError("autoscale_burn_budget must be > 0")
