"""The path contract: validate once at a public entry, trust below it.

``normalize_path`` is the one validator.  Every public boundary accepts
any spelling of an absolute path and behaves as on the canonical one;
``split_path``/``parent_of``/``basename``/``is_within`` are plain string
operations on already-normalized paths.
"""

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines.indexfs import IndexFS
from repro.core.permissions import PermissionSpec, RegionPermissions
from repro.dfs.beegfs import BeeGFS
from repro.dfs.client import DFSClient
from repro.dfs.errors import InvalidPath
from repro.dfs.namespace import (
    Namespace,
    basename,
    is_within,
    normalize_path,
    parent_of,
    split_path,
)
from repro.sim.core import run_sync
from repro.sim.network import Cluster
from tests.core.conftest import make_world

INVALID = ["/a/../b", "rel", "", "/a\x00"]


def _records(inodes):
    """Inode fields that do not depend on which world allocated them."""
    return [(i.ftype, i.mode, i.uid, i.gid, i.size) for i in inodes]


# -- every public boundary: any spelling, same behaviour ---------------------

def _pacon(d, f):
    world = make_world()

    def go():
        made = yield from world.client.mkdir(d)
        created = yield from world.client.create(f)
        stat = yield from world.client.getattr(d)
        yield from world.client.rm(f)
        return [made, created, stat]

    out = _records(world.run(go()))
    world.quiesce()
    return (out, sorted(p for p, _ in world.dfs.namespace.walk("/app")),
            world.region.cache.peek("/app/d1") is not None)


def _beegfs(d, f):
    cluster = Cluster(seed=3)
    fs = BeeGFS(cluster)
    fs.mkdir_sync("/app")
    client = fs.client(cluster.add_node("c0"), uid=0, gid=0)

    def go():
        made = yield from client.mkdir(d)
        stat = yield from client.getattr(d)
        return [made, stat]

    out = _records(run_sync(cluster.env, go()))
    mds = fs.mds_servers[0]
    return (out, sorted(p for p, _ in fs.namespace.walk("/")),
            sorted(mds._inode_cache), client.rpcs_sent)


def _namespace(d, f):
    ns = Namespace()
    ns.mkdir("/app")
    made = ns.mkdir(d)
    stat = ns.getattr(d)
    ns.rename(d, "/app//d2/")
    return _records([made, stat]), sorted(p for p, _ in ns.walk("/"))


def _check_op(d, f):
    perms = RegionPermissions("/app", PermissionSpec(0o700, 1000, 1000),
                              special={"/app/d1": PermissionSpec(0o500, 1000,
                                                                 1000)})
    return [perms.check_op(op, f, 1000, 1000)
            for op in ("create", "getattr", "read", "readdir", "write")]


def _indexfs(d, f):
    cluster = Cluster(seed=13)
    nodes = [cluster.add_node(f"n{i}") for i in range(2)]
    fs = IndexFS(cluster, nodes)
    fs.admin_mkdir("/app", mode=0o777)
    fs.admin_mkdir("/app/d1", mode=0o777)
    client = fs.client(nodes[0])

    def go():
        created = yield from client.create(f)
        stat = yield from client.getattr(f)
        return [created, stat]

    return _records(run_sync(cluster.env, go())), fs.total_entries()


@pytest.mark.parametrize("boundary",
                         [_pacon, _beegfs, _namespace, _check_op, _indexfs])
def test_any_spelling_behaves_as_the_canonical_one(boundary):
    assert (boundary("/app//d1/", "//app/d1///f/")
            == boundary("/app/d1", "/app/d1/f"))


@pytest.mark.parametrize("bad", INVALID)
def test_invalid_paths_rejected_at_every_boundary(bad):
    world = make_world()
    for op in (world.client.getattr, world.client.mkdir,
               world.client.create, world.client.rm):
        with pytest.raises(InvalidPath):
            world.run(op(bad))
    dfs_client = world.dfs.client(world.nodes[0])
    for op in (dfs_client.mkdir, dfs_client.getattr):
        with pytest.raises(InvalidPath):
            world.run(op(bad))
    ns = Namespace()
    for call in (lambda: ns.mkdir(bad), lambda: ns.getattr(bad),
                 lambda: ns.rename(bad, "/x"), lambda: ns.rename("/x", bad)):
        with pytest.raises(InvalidPath):
            call()
    with pytest.raises(InvalidPath):
        world.region.permissions.check_op("getattr", bad, 1000, 1000)
    cluster = Cluster(seed=13)
    indexfs_client = IndexFS(cluster, [cluster.add_node("n0")]).client(
        cluster.nodes[0])
    for op in (indexfs_client.create, indexfs_client.getattr):
        with pytest.raises(InvalidPath):
            run_sync(cluster.env, op(bad))


# -- one validation per entry --------------------------------------------------

@pytest.fixture
def normalize_calls(monkeypatch):
    """Count ``normalize_path`` calls through every module that binds it."""
    calls = []

    def counting(path):
        calls.append(path)
        return normalize_path(path)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and \
                getattr(module, "normalize_path", None) is normalize_path:
            monkeypatch.setattr(module, "normalize_path", counting)
    return calls


DEEP = "/app/" + "/".join(f"d{i}" for i in range(6))     # 7 components


def test_cached_pacon_getattr_validates_at_most_twice(normalize_calls):
    world = make_world()

    def build():
        path = "/app"
        for name in DEEP.split("/")[2:]:
            path += "/" + name
            yield from world.client.mkdir(path)

    world.run(build())
    hits = world.client.cache_hits
    del normalize_calls[:]
    world.run(world.client.getattr(DEEP))
    assert world.client.cache_hits == hits + 1
    assert len(normalize_calls) <= 2        # _enter + check_op; 9 before


class _StubMDS:
    """Answers every RPC with a directory record; never sees a Namespace,
    so only client-side validations are counted."""

    def request(self, src, method, *args, **kwargs):
        return {"ino": 2, "ftype": "dir", "mode": 0o755, "uid": 0, "gid": 0,
                "size": 0, "ctime": 0.0, "mtime": 0.0}
        yield


class _StubFS:
    def __init__(self):
        self.cluster = Cluster()
        self.mds = _StubMDS()

    def mds_for(self, dir_path):
        return self.mds


def test_dfs_client_getattr_validates_at_most_twice(normalize_calls):
    fs = _StubFS()
    client = DFSClient(fs, fs.cluster.add_node("c0"))
    inode = run_sync(fs.cluster.env, client.getattr(DEEP))
    assert inode.is_dir and client.lookup_rpcs == 6
    assert len(normalize_calls) <= 2        # _op only; 3 before


# -- helpers: plain string operations on canonical paths ---------------------

def _old_split(path):
    path = normalize_path(path)
    return [] if path == "/" else path[1:].split("/")


def _old_parent(path):
    parts = _old_split(path)
    if not parts:
        raise InvalidPath(path, "root has no parent")
    return "/" + "/".join(parts[:-1]) if len(parts) > 1 else "/"


def _old_basename(path):
    parts = _old_split(path)
    if not parts:
        raise InvalidPath(path, "root has no basename")
    return parts[-1]


def _old_is_within(path, ancestor):
    path, ancestor = normalize_path(path), normalize_path(ancestor)
    if ancestor == "/":
        return True
    return path == ancestor or path.startswith(ancestor + "/")


names = st.text(alphabet="ab.-_ é", min_size=1, max_size=3).filter(
    lambda n: n not in (".", ".."))
canonical = st.lists(names, max_size=5).map(lambda p: "/" + "/".join(p))
slashes = st.integers(min_value=1, max_value=3).map("/".__mul__)
messy = st.tuples(st.lists(st.tuples(slashes, names), max_size=5),
                  slashes).map(
    lambda drawn: "".join(s + n for s, n in drawn[0]) + drawn[1])


@given(canonical, canonical)
def test_helpers_equal_validate_then_compute(path, other):
    assert normalize_path(path) == path
    assert split_path(path) == _old_split(path)
    assert is_within(path, other) == _old_is_within(path, other)
    assert is_within(path.rstrip("/") + "/x", path)
    if path == "/":
        for helper in (parent_of, basename):
            with pytest.raises(InvalidPath):
                helper(path)
    else:
        assert parent_of(path) == _old_parent(path)
        assert basename(path) == _old_basename(path)


@given(messy)
def test_normalize_is_idempotent(path):
    once = normalize_path(path)
    assert normalize_path(once) == once
    assert "//" not in once and (once == "/" or not once.endswith("/"))


def test_helpers_do_not_validate():
    """The precondition is the caller's job: no hidden normalize_path."""
    for helper in (split_path, parent_of, basename, is_within):
        assert "normalize_path" not in helper.__code__.co_names
    assert split_path("/a//b") == ["a", "", "b"]
