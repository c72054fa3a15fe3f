"""Property: IndexFS and BeeGFS agree on every namespace operation.

IndexFS flattens the namespace into LSM trees behind a shared directory
index and client leases; BeeGFS keeps a real dentry tree.  Both are POSIX
namespaces, so a short random sequence of the ops IndexFS serves --
mkdir, create, getattr and unlink -- over a small name pool must give the
same outcome per op -- the kind of value returned, or the exception
class -- and leave the same namespace behind.

The root and the workspace are in the pool: the root exists only in the
IndexFS directory index, never in an LSM tree, and an unlink of a
directory, of the root or of a missing path must fail as it does on
BeeGFS.
"""

from typing import Dict, List, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.systems import make_testbed
from repro.dfs.inode import Inode
from repro.sim.core import run_sync

OPS = ("mkdir", "create", "getattr", "unlink")
PATHS = ("/", "/app", "/app/a", "/app/b", "/app/a/a", "/app/a/b",
         "/app/b/a", "/app/a/a/b")

op_sequences = st.lists(st.tuples(st.sampled_from(OPS),
                                  st.sampled_from(PATHS)),
                        min_size=1, max_size=14)


def _outcome(client, op: str, path: str, env) -> Tuple:
    """What ``op`` gives back: its value's kind and content, or the class
    of the exception it raised."""
    try:
        value = run_sync(env, getattr(client, op)(path))
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return ("raises", type(exc).__name__)
    if isinstance(value, Inode):
        return ("inode", value.is_dir)
    return (type(value).__name__, value)


def _indexfs_tree(fs) -> Dict[str, bool]:
    tree = {}
    for server in fs.servers:
        for key, record in server.lsm.scan_prefix(""):
            assert key not in tree, f"{key} stored twice"
            tree[key] = record["ftype"] == "dir"
    return tree


def _beegfs_tree(namespace, path: str = "/") -> Dict[str, bool]:
    tree = {}
    for name in namespace.readdir(path):
        child = path.rstrip("/") + "/" + name
        is_dir = namespace.getattr(child).is_dir
        tree[child] = is_dir
        if is_dir:
            tree.update(_beegfs_tree(namespace, child))
    return tree


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(op_sequences)
def test_indexfs_agrees_with_beegfs(ops: List[Tuple[str, str]]):
    ifs = make_testbed("indexfs", nodes_per_app=2, clients_per_node=1,
                       seed=3)
    bee = make_testbed("beegfs", nodes_per_app=2, clients_per_node=1,
                       seed=3)
    ifs_client, bee_client = ifs.clients[0], bee.clients[0]
    for op, path in ops:
        got = _outcome(ifs_client, op, path, ifs.env)
        want = _outcome(bee_client, op, path, bee.env)
        assert got == want, f"{op}({path}): IndexFS {got}, BeeGFS {want}"
    tree = _indexfs_tree(ifs.indexfs)
    assert tree == _beegfs_tree(bee.dfs.namespace)
    # The directory index names exactly the live directories.
    assert set(ifs.indexfs.dirmap) == {"/"} | {
        path for path, is_dir in tree.items() if is_dir}
