"""Model-based property tests: MemKV against a plain-dict oracle."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.kvstore.memkv import CasMismatch, KeyExists, MemKV

keys = st.sampled_from([f"/k{i}" for i in range(8)])
values = st.integers(min_value=0, max_value=1000)


class MemKVMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.kv = MemKV(capacity_bytes=1 << 20)
        self.model = {}
        self.tokens = {}  # key -> last gets() token and model value then

    @rule(key=keys, value=values)
    def set(self, key, value):
        self.kv.set(key, value)
        self.model[key] = value

    @rule(key=keys, value=values)
    def add(self, key, value):
        if key in self.model:
            try:
                self.kv.add(key, value)
                raise AssertionError("add on existing key must fail")
            except KeyExists:
                pass
        else:
            self.kv.add(key, value)
            self.model[key] = value

    @rule(key=keys)
    def get(self, key):
        assert self.kv.get(key) == self.model.get(key)

    @rule(key=keys)
    def delete(self, key):
        existed = self.kv.delete(key)
        assert existed == (key in self.model)
        self.model.pop(key, None)

    @rule(key=keys)
    def remember_token(self, key):
        got = self.kv.gets(key)
        if got is None:
            assert key not in self.model
        else:
            value, token = got
            assert value == self.model[key]
            self.tokens[key] = (token, value)

    @rule(key=keys, value=values)
    def cas_with_remembered_token(self, key, value):
        if key not in self.tokens:
            return
        token, seen_value = self.tokens.pop(key)
        current = self.kv.gets(key)
        fresh = current is not None and current[1] == token
        if fresh:
            self.kv.cas(key, value, token)
            self.model[key] = value
        else:
            try:
                self.kv.cas(key, value, token)
                raise AssertionError("stale CAS must fail")
            except CasMismatch:
                pass

    @invariant()
    def same_size(self):
        assert len(self.kv) == len(self.model)

    @invariant()
    def usage_nonnegative(self):
        assert self.kv.used_bytes >= 0


TestMemKVModel = MemKVMachine.TestCase
TestMemKVModel.settings = settings(max_examples=60,
                                   stateful_step_count=40, deadline=None)


@given(st.lists(st.tuples(keys, values), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_last_write_wins(writes):
    kv = MemKV()
    model = {}
    for key, value in writes:
        kv.set(key, value)
        model[key] = value
    for key, value in model.items():
        assert kv.get(key) == value


@given(st.lists(keys, min_size=2, max_size=20, unique=True))
@settings(max_examples=40, deadline=None)
def test_versions_unique_and_monotonic(key_list):
    kv = MemKV()
    tokens = []
    for key in key_list:
        tokens.append(kv.set(key, 0))
    assert tokens == sorted(tokens)
    assert len(set(tokens)) == len(tokens)
