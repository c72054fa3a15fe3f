"""Property tests for consistent-hash placement."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.dht import ConsistentHashRing


class Member:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"Member({self.name})"


member_counts = st.integers(min_value=1, max_value=8)
key_lists = st.lists(st.text(alphabet="abcdef/", min_size=1, max_size=12),
                     min_size=1, max_size=60, unique=True)


@given(n=member_counts, keys=key_lists)
@settings(max_examples=60, deadline=None)
def test_lookup_total_and_stable(n, keys):
    ring = ConsistentHashRing(vnodes=32)
    members = [Member(f"m{i}") for i in range(n)]
    for m in members:
        ring.add(m)
    first = [ring.lookup(k).name for k in keys]
    second = [ring.lookup(k).name for k in keys]
    assert first == second
    assert all(name in {m.name for m in members} for name in first)


@given(n=st.integers(min_value=2, max_value=8), keys=key_lists)
@settings(max_examples=50, deadline=None)
def test_removal_only_moves_removed_members_keys(n, keys):
    ring = ConsistentHashRing(vnodes=32)
    members = [Member(f"m{i}") for i in range(n)]
    for m in members:
        ring.add(m)
    before = {k: ring.lookup(k) for k in keys}
    victim = members[0]
    ring.remove(victim)
    for k in keys:
        after = ring.lookup(k)
        if before[k] is not victim:
            assert after is before[k], "non-victim key moved"
        else:
            assert after is not victim


@given(n=member_counts, keys=key_lists)
@settings(max_examples=50, deadline=None)
def test_addition_only_steals_keys_for_new_member(n, keys):
    ring = ConsistentHashRing(vnodes=32)
    members = [Member(f"m{i}") for i in range(n)]
    for m in members:
        ring.add(m)
    before = {k: ring.lookup(k) for k in keys}
    newbie = Member("newbie")
    ring.add(newbie)
    for k in keys:
        after = ring.lookup(k)
        assert after is before[k] or after is newbie


