"""Table I: main metadata operations in Pacon — design vs. observed.

The design table from §III.D, regenerated by probing a live deployment
and reporting, per operation, the cache operation, communication type,
and commit type actually exercised.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.report import experiment
from repro.bench.systems import make_testbed
from repro.sim.core import run_sync

__all__ = ["run", "DESIGN_TABLE"]

#: The paper's Table I, row per operation.
DESIGN_TABLE: Dict[str, Dict[str, str]] = {
    "create": {"cache_op": "put", "comm": "async", "commit": "indep"},
    "mkdir": {"cache_op": "put", "comm": "async", "commit": "indep"},
    "rm": {"cache_op": "update+delete", "comm": "async", "commit": "indep"},
    "getattr": {"cache_op": "get", "comm": "none", "commit": "none"},
    "getattr(miss)": {"cache_op": "get", "comm": "sync(miss)",
                      "commit": "indep(miss)"},
    "rmdir": {"cache_op": "delete", "comm": "sync", "commit": "barrier"},
    "readdir": {"cache_op": "none", "comm": "sync", "commit": "barrier"},
}


def observe(seed: int) -> Dict[str, Dict[str, str]]:
    """Run each operation on a live deployment and capture its trace."""
    bed = make_testbed("pacon", n_apps=1, nodes_per_app=2,
                       clients_per_node=1, seed=seed)
    client = bed.clients[0]
    env = bed.env

    observed: Dict[str, Dict[str, str]] = {}

    def grab(op_name: str):
        t = client.last_trace  # a fresh dict per read
        t.pop("op")
        observed[op_name] = t

    run_sync(env, client.mkdir("/app/d"))
    grab("mkdir")
    run_sync(env, client.create("/app/d/f"))
    grab("create")
    run_sync(env, client.getattr("/app/d/f"))
    grab("getattr")
    # Miss path: the entry exists only on the DFS.
    bed.dfs.namespace.create("/app/cold", uid=1000, gid=1000)
    run_sync(env, client.getattr("/app/cold"))
    grab("getattr(miss)")
    run_sync(env, client.rm("/app/d/f"))
    grab("rm")
    run_sync(env, client.readdir("/app/d"))
    grab("readdir")
    run_sync(env, client.rmdir("/app/d"))
    grab("rmdir")
    return observed


# One fixed probe sequence: every scale runs the same thing.
@experiment("table1", "Main metadata operations: design vs observed"
            " semantics", dict.fromkeys(("smoke", "ci", "paper"), {}))
def run(out, params, seed):
    observed = observe(seed=seed)
    all_match = True
    for op, design in DESIGN_TABLE.items():
        seen = observed.get(op, {})
        match = seen == design
        all_match = all_match and match
        out.add(operation=op,
                cache_op=design["cache_op"],
                comm_type=design["comm"],
                commit_type=design["commit"],
                observed="match" if match else f"MISMATCH: {seen}")
    out.derive("conformant", 1.0 if all_match else 0.0)
    out.note("all operations conform to Table I" if all_match
             else "CONFORMANCE FAILURE — see rows")

