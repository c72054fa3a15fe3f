"""Unit tests for consistent hashing and the mod-N partitioner."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kvstore.dht import ConsistentHashRing, stable_hash64


class FakeNode:
    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"FakeNode({self.name})"


@pytest.fixture
def nodes():
    return [FakeNode(f"n{i}") for i in range(4)]


@pytest.fixture
def ring(nodes):
    r = ConsistentHashRing(vnodes=64)
    for n in nodes:
        r.add(n)
    return r


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("/a/b") == stable_hash64("/a/b")

    def test_distinct_inputs(self):
        assert stable_hash64("/a") != stable_hash64("/b")

    def test_64_bit_range(self):
        h = stable_hash64("key")
        assert 0 <= h < (1 << 64)


class TestRingMembership:
    def test_vnodes_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRing(vnodes=0)

    def test_add_duplicate_rejected(self, ring, nodes):
        with pytest.raises(ValueError):
            ring.add(nodes[0])

    def test_remove_unknown_rejected(self, ring):
        with pytest.raises(KeyError):
            ring.remove(FakeNode("ghost"))

    def test_len_and_members(self, ring, nodes):
        assert len(ring) == 4
        assert set(ring.members) == set(nodes)

    def test_empty_ring_lookup_fails(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().lookup("/a")


class TestRingPlacement:
    def test_lookup_deterministic(self, ring):
        keys = [f"/dir/file{i}" for i in range(100)]
        first = [ring.lookup(k) for k in keys]
        second = [ring.lookup(k) for k in keys]
        assert first == second

    def test_placement_stable_across_instances(self, nodes):
        r1 = ConsistentHashRing(vnodes=64)
        r2 = ConsistentHashRing(vnodes=64)
        for n in nodes:
            r1.add(n)
            r2.add(n)
        keys = [f"/k{i}" for i in range(200)]
        assert ([ring_node.name for ring_node in map(r1.lookup, keys)]
                == [ring_node.name for ring_node in map(r2.lookup, keys)])

    def test_balance_within_reason(self, ring, nodes):
        keys = [f"/workspace/file-{i}" for i in range(4000)]
        dist = ring.distribution(keys)
        for node in nodes:
            assert dist[node] > 4000 / len(nodes) * 0.5

    def test_minimal_movement_on_member_removal(self, ring, nodes):
        keys = [f"/k{i}" for i in range(2000)]
        before = {k: ring.lookup(k) for k in keys}
        ring.remove(nodes[0])
        moved = 0
        for k in keys:
            after = ring.lookup(k)
            if after is not before[k]:
                moved += 1
                # keys may only move off the removed node
                assert before[k] is nodes[0]
        assert moved > 0  # the removed node did own some keys

    def test_weight_increases_share(self):
        heavy, light = FakeNode("heavy"), FakeNode("light")
        ring = ConsistentHashRing(vnodes=32)
        ring.add(heavy, weight=4)
        ring.add(light, weight=1)
        keys = [f"/k{i}" for i in range(3000)]
        dist = ring.distribution(keys)
        assert dist[heavy] > dist[light] * 2


MEMBERS = [FakeNode(f"n{i}") for i in range(5)]
ring_steps = st.lists(st.one_of(
    st.tuples(st.just("add"), st.sampled_from(MEMBERS),
              st.integers(min_value=1, max_value=3)),
    st.tuples(st.just("remove"), st.sampled_from(MEMBERS)),
    # A handful of keys, so most lookups of a key hit its memo entry.
    st.tuples(st.just("lookup"),
              st.sampled_from(["/a", "/a/b", "/c", "/d/e/f", "/g"]))),
    max_size=40)


class TestLookupMemo:
    @given(steps=ring_steps)
    def test_memoized_lookup_answers_as_a_fresh_ring(self, steps):
        """The key -> member memo survives no membership change, and every
        lookup is counted, memo hit or miss."""
        ring = ConsistentHashRing(vnodes=8)
        ring.enable_lookup_stats()
        weights = {}
        counted = Counter()
        for verb, arg, *weight in steps:
            if verb == "add" and arg.name not in weights:
                ring.add(arg, weight=weight[0])
                weights[arg.name] = weight[0]
            elif verb == "remove" and arg.name in weights:
                ring.remove(arg)
                del weights[arg.name]
            elif verb == "lookup" and weights:
                fresh = ConsistentHashRing(vnodes=8)
                for m in ring.members:
                    fresh.add(m, weight=weights[m.name])
                owner = ring.lookup(arg)
                assert owner is fresh.lookup(arg)
                counted[f"FakeNode:{owner.name}"] += 1
                assert ring.lookup_counts() == counted
            elif verb == "lookup":
                with pytest.raises(LookupError):
                    ring.lookup(arg)


