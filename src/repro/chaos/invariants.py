"""Post-recovery convergence invariants (§III.E, §III.G).

The convergence claim a chaos run must prove has three parts:

1. **Namespace convergence** — after recovery and quiesce, the committed
   namespace equals the one a fault-free run of the same seed produces.
   For loss-free faults (MDS crash with replay, partitions, planned
   churn) equality is byte-exact; for destructive faults (client-node
   crash) the faulty run's namespace must be a subset of the reference
   and the difference must be fully explained by the loss accounting.
2. **No stuck machinery** — every commit process is alive, idle, and
   unkilled; no barrier arrival is pending; every triggered epoch
   completed; queues are empty with no leaked waiter registrations.
3. **Exact loss accounting** — ``ops_submitted`` equals
   ``ops_committed + discarded + coalesced + lost``, where ``lost`` is
   the sum of :class:`~repro.core.failure.FailureReport` queued-op
   counts.  Nothing disappears without being counted.

Digests deliberately exclude inos and timestamps: a fault perturbs
commit order, and the DFS allocates inos in commit order, so only the
logical content (path, type, mode, ownership, size) is compared.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["namespace_entries", "namespace_digest", "InvariantReport",
           "check_convergence"]

#: One canonical namespace entry: (path, is_dir, mode, uid, gid, size).
Entry = Tuple[str, bool, int, int, int, int]


def namespace_entries(namespace, root: str = "/") -> List[Entry]:
    """Canonical, order-independent view of a committed subtree."""
    entries = []
    for path, inode in namespace.walk(root):
        entries.append((path, inode.is_dir, inode.mode, inode.uid,
                        inode.gid, inode.size))
    entries.sort()
    return entries


def namespace_digest(entries: List[Entry]) -> str:
    """Stable hex digest of a canonical entry list."""
    h = hashlib.sha256()
    for entry in entries:
        h.update(repr(entry).encode())
        h.update(b"\n")
    return h.hexdigest()


@dataclass
class InvariantReport:
    """Outcome of one convergence check."""

    ok: bool
    digest: str
    problems: List[str] = field(default_factory=list)
    checks: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        status = "OK" if self.ok else "VIOLATED"
        lines = [f"convergence {status} (digest {self.digest[:12]})"]
        for name, value in sorted(self.checks.items()):
            lines.append(f"  {name}: {value}")
        for problem in self.problems:
            lines.append(f"  !! {problem}")
        return "\n".join(lines)


def check_convergence(region, dfs, *,
                      reference_entries: Optional[List[Entry]] = None,
                      lost_ops: int = 0,
                      require_identical: Optional[bool] = None,
                      ) -> InvariantReport:
    """Assert the region reconverged after fault injection + recovery.

    Call only after every fault has recovered and the region quiesced.
    ``reference_entries`` is the canonical namespace of a fault-free run
    of the same seed (see :func:`namespace_entries`); ``lost_ops`` is the
    total queued-op loss reported by failure injection.
    ``require_identical`` defaults to ``lost_ops == 0`` — loss-free
    faults must reproduce the reference byte-exactly, destructive faults
    must produce a subset of it.
    """
    problems: List[str] = []
    checks: Dict[str, Any] = {}

    # -- no stuck machinery -------------------------------------------------
    for cp in region.commit_processes:
        who = f"commit[{cp.node.name}]"
        if not cp.alive:
            problems.append(f"{who} is dead")
        if cp.killed:
            problems.append(f"{who} still flagged killed")
        if not cp.idle:
            problems.append(
                f"{who} not idle (queue={len(cp.queue)},"
                f" pending={len(cp._pending)}, in_flight={len(cp._drain)})")
    checks["commit_processes"] = len(region.commit_processes)

    if region.commit_barrier.n_waiting != 0:
        problems.append(f"{region.commit_barrier.n_waiting} commit"
                        " processes stuck at the barrier")
    if region.barrier_epochs_completed != region.client_epoch:
        problems.append(
            f"barrier epochs incomplete:"
            f" {region.barrier_epochs_completed}/{region.client_epoch}")
    checks["barrier_epochs"] = region.barrier_epochs_completed

    leaked = 0
    for queue in region.queues.queues():
        if len(queue) != 0:
            problems.append(f"queue {queue.name} still holds"
                            f" {len(queue)} messages")
        # Exactly one blocked getter (the idle commit loop) is the steady
        # state; more means an aborted wait leaked its registration.
        if queue.waiting_getters > 1:
            leaked += queue.waiting_getters - 1
            problems.append(f"queue {queue.name} has"
                            f" {queue.waiting_getters} waiting getters"
                            " (leaked waiter)")
    checks["leaked_waiters"] = leaked

    # -- exact loss accounting ---------------------------------------------
    committed = region.ops_committed
    discarded = sum(cp.discarded for cp in region.commit_processes)
    coalesced = sum(cp.coalesced for cp in region.commit_processes)
    accounted = committed + discarded + coalesced + lost_ops
    checks["accounting"] = (f"{region.ops_submitted} submitted ="
                            f" {committed} committed + {discarded} discarded"
                            f" + {coalesced} coalesced + {lost_ops} lost")
    if region.ops_submitted != accounted:
        problems.append(
            f"loss accounting broken: {region.ops_submitted} submitted"
            f" != {accounted} accounted"
            f" (committed={committed}, discarded={discarded},"
            f" coalesced={coalesced}, lost={lost_ops})")

    # -- namespace convergence ----------------------------------------------
    entries = namespace_entries(dfs.namespace, region.workspace)
    digest = namespace_digest(entries)
    checks["entries"] = len(entries)
    if reference_entries is not None:
        ref_digest = namespace_digest(reference_entries)
        if require_identical is None:
            require_identical = lost_ops == 0
        if require_identical:
            if digest != ref_digest:
                extra = sorted(set(entries) - set(reference_entries))
                missing = sorted(set(reference_entries) - set(entries))
                problems.append(
                    f"namespace diverged from fault-free reference:"
                    f" {len(missing)} missing, {len(extra)} extra"
                    f" (e.g. missing={missing[:3]}, extra={extra[:3]})")
            checks["reference"] = "identical" if digest == ref_digest \
                else "DIVERGED"
        else:
            extra = sorted(set(entries) - set(reference_entries))
            if extra:
                problems.append(
                    f"faulty run committed {len(extra)} entries absent"
                    f" from the fault-free reference (e.g. {extra[:3]})")
            checks["reference"] = (f"subset ({len(reference_entries)} ref,"
                                   f" {len(entries)} faulty)")

    return InvariantReport(ok=not problems, digest=digest,
                           problems=problems, checks=checks)
