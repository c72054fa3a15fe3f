"""Property: the one-pass ``memkv._sizeof`` sizes everything as before.

``_sizeof`` runs on every ``set`` / ``add`` / ``cas`` and feeds
``used_bytes``, which the eviction policy, the ``cache.used_bytes`` gauge
and ``kvstore.memkv_used_bytes`` all read — a size that moved by one byte
would move simulated behaviour.  The recursive definition it replaced is
kept here verbatim as the reference.
"""

from enum import Enum, IntEnum
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dfs.inode import FileType, Inode
from repro.kvstore.memkv import MemKV, _sizeof


def reference_sizeof(value: Any) -> int:
    """``_sizeof`` as it was: an ``isinstance`` ladder, recursing through
    a generator expression per container."""
    if value is None:
        return 8
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (int, float, bool)):
        return 16
    if isinstance(value, dict):
        return 64 + sum(reference_sizeof(k) + reference_sizeof(v)
                        for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return 32 + sum(reference_sizeof(v) for v in value)
    return 64  # opaque object


class Colour(str, Enum):
    RED = "rouge"


class Level(IntEnum):
    LOW = 1


class Record(dict):
    """A dict subclass: not the exact type the fast path keys on."""


scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
    st.binary(max_size=40), st.text(max_size=20),
    st.text(alphabet="abc/._-0123456789", max_size=40),     # ASCII paths
    st.sampled_from([Colour.RED, Level.LOW, object(), 1 + 2j]))
keys = st.one_of(st.text(max_size=12), st.integers(), st.booleans(),
                 st.none(), st.binary(max_size=8))
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.dictionaries(keys, inner, max_size=6),
        st.dictionaries(keys, inner, max_size=3).map(Record),
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.frozensets(st.one_of(st.integers(), st.text(max_size=5)),
                      max_size=4)),
    max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(value=values)
def test_one_pass_sizeof_equals_the_recursive_definition(value):
    assert _sizeof(value) == reference_sizeof(value)


@given(inline=st.one_of(st.none(), st.binary(max_size=64)),
       name=st.text(max_size=12))
def test_a_cache_record_is_sized_as_before(inline, name):
    """The hot input: a flat metadata record with the cache's flags."""
    record = Inode(ino=7, ftype=FileType.FILE, mode=0o644, uid=1, gid=2,
                   size=len(inline or b""), ctime=1.5e-6, mtime=2.5e-6,
                   inline_data=inline).to_record()
    record.update(committed=False, deleted=False, large=False, shadow=False,
                  owner=name)
    assert _sizeof(record) == reference_sizeof(record)
    kv = MemKV()
    kv.set("/app/" + name, record)
    assert kv.used_bytes == (len(("/app/" + name).encode("utf-8"))
                             + reference_sizeof(record) + 48)
