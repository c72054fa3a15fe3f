"""Property: subtree export → restore is an identity on the subtree."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfs.namespace import Namespace

WS = "/ws"
MODES = [0o700, 0o755, 0o640]


@st.composite
def trees(draw):
    n = draw(st.integers(min_value=0, max_value=15))
    dirs = [WS]
    entries = []
    for i in range(n):
        parent = draw(st.sampled_from(dirs))
        kind = draw(st.sampled_from(["dir", "file"]))
        path = f"{parent}/{kind[0]}{i}"
        mode = draw(st.sampled_from(MODES))
        size = draw(st.integers(min_value=0, max_value=4096)) \
            if kind == "file" else 0
        entries.append((path, kind, mode, size))
        if kind == "dir":
            dirs.append(path)
    return entries


def build(entries) -> Namespace:
    ns = Namespace()
    ns.mkdir(WS, mode=0o777)
    for path, kind, mode, size in entries:
        # Root makes each entry (no mode bit stops it), then hands it to
        # uid 7 / gid 8.
        if kind == "dir":
            ns.mkdir(path, mode=mode)
        else:
            ns.create(path, mode=mode)
        ns.setattr(path, new_uid=7, new_gid=8, size=size or None)
    return ns


def snapshot_view(ns: Namespace):
    return {
        path: (inode.ftype.value, inode.mode, inode.uid, inode.gid,
               inode.size)
        for path, inode in ns.walk(WS)
    }


@given(entries=trees(), extra=st.integers(min_value=0, max_value=5))
@settings(max_examples=80, deadline=None)
def test_export_restore_identity(entries, extra):
    ns = build(entries)
    before = snapshot_view(ns)
    checkpoint = ns.export_subtree(WS)
    # Mutate arbitrarily after the checkpoint.
    for i in range(extra):
        ns.create(f"{WS}/garbage{i}")
    doomed = [p for p, (kind, *_rest) in before.items()
              if kind == "file" and p != WS]
    for path in doomed[: len(doomed) // 2]:
        ns.unlink(path)
    # Restore must reproduce the snapshot exactly.
    ns.restore_subtree(checkpoint)
    assert snapshot_view(ns) == before


@given(entries=trees())
@settings(max_examples=50, deadline=None)
def test_restore_is_idempotent(entries):
    ns = build(entries)
    checkpoint = ns.export_subtree(WS)
    ns.restore_subtree(checkpoint)
    once = snapshot_view(ns)
    ns.restore_subtree(checkpoint)
    assert snapshot_view(ns) == once
