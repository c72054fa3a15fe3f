"""Comparator systems.

* :mod:`repro.baselines.indexfs` — the paper's main comparator: KV-resident
  metadata on LSM trees, servers co-located with client nodes, stateless
  client caching with leases, optional bulk insertion (the BatchFS/DeltaFS
  approximation the paper uses in §IV).  Serves mkdir, create, getattr
  and unlink/rm: mdtest's phases.
* :mod:`repro.baselines.shardfs` and :mod:`repro.baselines.locofs` — the
  path-traversal-optimization alternatives discussed in §II.C/§V, built at
  ablation grade for the trade-off benches.  Serve mkdir, create and
  getattr: the ops the path-traversal ablation runs.

The native-BeeGFS baseline is :mod:`repro.dfs` itself.
"""

from repro.baselines.indexfs import IndexFS, IndexFSClient, IndexFSServer
from repro.baselines.shardfs import ShardFS
from repro.baselines.locofs import LocoFS

__all__ = ["IndexFS", "IndexFSClient", "IndexFSServer", "ShardFS", "LocoFS"]
