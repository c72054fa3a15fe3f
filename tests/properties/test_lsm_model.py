"""Model-based property tests: LSMTree against a plain-dict oracle,
including flush/compaction transparency."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.kvstore.lsm import LSMTree

keys = st.sampled_from([f"/p{i}/k{j}" for i in range(3) for j in range(5)])
values = st.integers(min_value=0, max_value=999)


class LSMMachine(RuleBasedStateMachine):
    """put/delete/get/scan must match the model across flush/compact."""

    def __init__(self):
        super().__init__()
        self.lsm = LSMTree(memtable_limit=6, l0_limit=2)
        self.model = {}

    @rule(key=keys, value=values)
    def put(self, key, value):
        self.lsm.put(key, value)
        self.model[key] = value

    @rule(key=keys)
    def delete(self, key):
        self.lsm.delete(key)
        self.model.pop(key, None)

    @rule(key=keys)
    def get(self, key):
        receipt = self.lsm.get(key)
        if key in self.model:
            assert receipt.found and receipt.value == self.model[key]
        else:
            assert not receipt.found

    @rule()
    def flush(self):
        self.lsm.flush()

    @rule()
    def compact(self):
        self.lsm.compact()

    @rule(prefix=st.sampled_from(["/p0/", "/p1/", "/p2/"]))
    def scan(self, prefix):
        got = dict(self.lsm.scan_prefix(prefix))
        expected = {k: v for k, v in self.model.items()
                    if k.startswith(prefix)}
        assert got == expected

    @invariant()
    def live_key_count_matches(self):
        assert self.lsm.total_live_keys() == len(self.model)


TestLSMModel = LSMMachine.TestCase
TestLSMModel.settings = settings(max_examples=50, stateful_step_count=50,
                                 deadline=None)


@given(st.lists(st.tuples(keys, values), min_size=1, max_size=80))
@settings(max_examples=50, deadline=None)
def test_heavy_write_then_full_readback(writes):
    lsm = LSMTree(memtable_limit=4, l0_limit=1)
    model = {}
    for key, value in writes:
        lsm.put(key, value)
        model[key] = value
    for key, value in model.items():
        assert lsm.get(key).value == value
    assert dict(lsm.scan_prefix("/")) == model
