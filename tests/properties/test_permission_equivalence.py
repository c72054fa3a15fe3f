"""Property test: batch permission checks ≡ hierarchical traversal.

Under the paper's HPC assumptions — every entry in a workspace carries the
region's normal permission except a declared special list — Pacon's batch
check (one normal match + one special-list scan) must agree with the
classic layer-by-layer traversal over a real namespace carrying those same
modes.  Hypothesis generates random trees, special lists, and access
requests; the oracle is the repro DFS namespace itself.  A second property
runs the special list through a live region's op sequences: it must keep
naming exactly the entries its client chmod-ed, and the cached verdicts
must still agree with the traversal afterwards.
"""

from typing import Dict, List, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.commit import CommitStalled
from repro.core.config import PaconConfig
from repro.core.deploy import PaconFS
from repro.core.permissions import PermissionSpec, RegionPermissions
from repro.dfs.errors import FileExists, FSError, PermissionDenied
from repro.dfs.inode import AccessMode
from repro.dfs.namespace import Namespace, parent_of

WS = "/ws"
APP = (1000, 1000)
MODES = [0o700, 0o750, 0o755, 0o500, 0o300, 0o770]
USERS = [(1000, 1000), (1000, 2000), (2000, 1000), (2000, 2000), (0, 0)]


@st.composite
def workspaces(draw):
    """A random tree plus a special-permission assignment."""
    n_dirs = draw(st.integers(min_value=1, max_value=8))
    n_files = draw(st.integers(min_value=1, max_value=8))
    normal_mode = draw(st.sampled_from(MODES))
    dirs = [WS]
    entries: List[Tuple[str, str]] = []
    for i in range(n_dirs):
        parent = draw(st.sampled_from(dirs))
        path = f"{parent}/d{i}"
        dirs.append(path)
        entries.append((path, "dir"))
    for i in range(n_files):
        parent = draw(st.sampled_from(dirs))
        entries.append((f"{parent}/f{i}", "file"))
    special: Dict[str, int] = {}
    for path, _ftype in entries:
        if draw(st.booleans()) and len(special) < 3:
            special[path] = draw(st.sampled_from(MODES))
    return normal_mode, entries, special


def build_oracle(normal_mode: int, entries, special) -> Namespace:
    ns = Namespace()
    # Entry (search permission) into the region root is granted at region
    # creation, so the oracle's /ws carries exec-for-all; its other bits
    # stay per the normal permission (writes into the workspace root are
    # still governed by the declared permission information).
    ns.mkdir(WS, mode=normal_mode | 0o111, uid=APP[0], gid=APP[1],
             check_perms=False)
    for path, ftype in entries:
        mode = special.get(path, normal_mode)
        if ftype == "dir":
            ns.mkdir(path, mode=mode, uid=APP[0], gid=APP[1],
                     check_perms=False)
        else:
            ns.create(path, mode=mode, uid=APP[0], gid=APP[1],
                      check_perms=False)
    return ns


def oracle_allows(ns: Namespace, op: str, path: str, uid: int,
                  gid: int) -> bool:
    """Hierarchical traversal verdict, scoped to ancestors inside WS.

    The region grants workspace entry at creation, so the oracle walks
    from WS (not from /), matching what the batch check answers for.
    """
    try:
        if op == "create":
            parent = parent_of(path)
            ns.getattr(parent, uid, gid, check_perms=True)
            inode = ns.getattr(parent, 0, 0, check_perms=False)
            return inode.permits(uid, gid,
                                 AccessMode.WRITE | AccessMode.EXECUTE)
        if op == "getattr":
            parent = parent_of(path)
            ns.getattr(parent, uid, gid, check_perms=True)
            inode = ns.getattr(parent, 0, 0, check_perms=False)
            return inode.permits(uid, gid, AccessMode.EXECUTE)
        if op == "readdir":
            ns.getattr(path, uid, gid, check_perms=True)
            inode = ns.getattr(path, 0, 0, check_perms=False)
            return inode.permits(uid, gid, AccessMode.READ)
        if op == "write":
            ns.getattr(path, uid, gid, check_perms=True)
            inode = ns.getattr(path, 0, 0, check_perms=False)
            return inode.permits(uid, gid, AccessMode.WRITE)
    except PermissionDenied:
        return False
    raise ValueError(op)


@given(ws=workspaces(), user=st.sampled_from(USERS),
       op=st.sampled_from(["create", "getattr", "readdir", "write"]),
       pick=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_batch_check_matches_hierarchical_traversal(ws, user, op, pick):
    normal_mode, entries, special = ws
    uid, gid = user
    ns = build_oracle(normal_mode, entries, special)
    perms = RegionPermissions(
        WS, PermissionSpec(mode=normal_mode, uid=APP[0], gid=APP[1]),
        {p: PermissionSpec(mode=m, uid=APP[0], gid=APP[1])
         for p, m in special.items()})

    # Pick an existing entry appropriate for the op.
    if op == "readdir":
        candidates = [p for p, f in entries if f == "dir"] or [WS]
    else:
        candidates = [p for p, _f in entries]
    path = candidates[pick % len(candidates)]
    if path == WS:
        return  # region-root access is granted by construction

    batch = perms.check_op(op, path, uid, gid).allowed
    oracle = oracle_allows(ns, op, path, uid, gid)
    assert batch == oracle, (
        f"divergence on {op} {path} as uid={uid},gid={gid}: "
        f"batch={batch} oracle={oracle} normal={oct(normal_mode)} "
        f"special={ {p: oct(m) for p, m in special.items()} }")


# -- the special list over a live region's op sequences ----------------------

#: Built and chmod-ed before the steps run, so every step meets entries
#: on the special list; ``/ws/c`` starts free for a create or a rename.
START = [("mkdir", f"{WS}/a"), ("create", f"{WS}/a/x"),
         ("create", f"{WS}/b")]
NAMES = [f"{WS}/a", f"{WS}/a/x", f"{WS}/b", f"{WS}/c"]
CHMOD_MODES = [0o700, 0o600, 0o500, 0o400, 0o300]


@st.composite
def ops(draw):
    """One op on the small tree, each kind equally likely."""
    op = draw(st.sampled_from(["create", "mkdir", "chmod", "rm", "rmdir",
                               "rename", "stat"]))
    path = draw(st.sampled_from(NAMES))
    if op == "chmod":
        return op, path, draw(st.sampled_from(CHMOD_MODES))
    if op == "rename":
        # Hypothesis leans toward the first choice: the free name, where
        # a rename of a live entry lands.
        return op, path, draw(st.sampled_from(NAMES[::-1]))
    return op, path


@given(normal_mode=st.sampled_from([0o711, 0o755]),
       start_modes=st.lists(st.sampled_from(CHMOD_MODES), min_size=3,
                            max_size=3),
       steps=st.lists(ops(), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_the_special_list_follows_the_namespace(normal_mode, start_modes,
                                                steps):
    """The normal modes give everyone search on the workspace root, the
    entry the region grants at creation, so the DFS traversal from ``/``
    is the oracle as is.

    Each step quiesces, and a create or mkdir looks its name up first:
    two commit-pipeline defects (ROADMAP item 12, pinned by the xfail
    tests below) would otherwise stall the drain before the special list
    is ever checked.
    """
    fs = PaconFS(workspace=WS, nodes=2, config=PaconConfig(
        workspace=WS, permissions=PermissionSpec(mode=normal_mode,
                                                 uid=APP[0], gid=APP[1])))
    for op, path in START:
        getattr(fs, op)(path)
    fs.quiesce()
    for (_op, path), mode in zip(reversed(START), start_modes):
        fs.chmod(path, mode)
    fs.quiesce()
    for op, *args in steps:
        try:
            if op in ("create", "mkdir"):
                fs.exists(args[0])
            getattr(fs, op)(*args)
        except FSError:
            pass
        fs.quiesce()
    ns = fs.dfs.namespace
    perms = fs.region.permissions
    for path, spec in perms.special.items():
        assert ns.exists(path), f"special entry {path} outlived its name"
        assert ns.getattr(path, check_perms=False).mode == spec.mode, path
    for path, inode in ns.walk(WS):
        if path == WS:
            continue
        for uid, gid in USERS:
            for check in (["create", "getattr", "write"]
                          + ["readdir"] * inode.is_dir):
                assert perms.check_op(check, path, uid, gid).allowed == \
                    oracle_allows(ns, check, path, uid, gid), (
                        f"{check} {path} as {uid}/{gid} after {steps}")


# -- the two stalls the property steps around (ROADMAP item 12) ---------------
# Each starts passing when its defect is fixed; then drop the matching
# concession from test_the_special_list_follows_the_namespace.

@pytest.mark.xfail(strict=True, raises=CommitStalled,
                   reason="ROADMAP item 12(a): the create resubmits forever")
def test_a_create_over_a_renamed_directory_is_refused():
    """Rename drops both names from the cache, so the create's cache add
    succeeds over a name the DFS already holds."""
    fs = PaconFS(workspace=WS, nodes=2)
    fs.mkdir(f"{WS}/a")
    fs.rename(f"{WS}/a", f"{WS}/b")
    try:
        fs.create(f"{WS}/b")
    except FileExists:
        pass
    fs.quiesce()
    assert fs.dfs.namespace.getattr(f"{WS}/b", check_perms=False).is_dir


@pytest.mark.xfail(strict=True, raises=PermissionDenied,
                   reason="ROADMAP item 12(b): the DFS refuses the create")
def test_a_chmod_of_an_uncommitted_directory_keeps_the_create_under_it():
    """The create was legal when it was issued; the mkdir commits with
    the chmod's mode, which forbids it on the DFS."""
    fs = PaconFS(workspace=WS, nodes=2)
    fs.mkdir(f"{WS}/d")
    fs.create(f"{WS}/d/f")
    fs.chmod(f"{WS}/d", 0o500)
    fs.quiesce()
    ns = fs.dfs.namespace
    assert ns.exists(f"{WS}/d/f")
    assert ns.getattr(f"{WS}/d", check_perms=False).mode & 0o777 == 0o500
