"""Model-based property tests: the DFS namespace vs a path-set oracle."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.dfs.errors import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)
from repro.dfs.namespace import Namespace, parent_of

NAMES = ["a", "b", "c"]
paths = st.lists(st.sampled_from(NAMES), min_size=1, max_size=4).map(
    lambda parts: "/" + "/".join(parts))


class NamespaceMachine(RuleBasedStateMachine):
    """mkdir/create/unlink/rmdir against a dict model.

    The model maps path -> 'dir'|'file'; the machine asserts that each
    operation succeeds or fails exactly when the model says it should.
    """

    def __init__(self):
        super().__init__()
        self.ns = Namespace()
        self.model = {"/": "dir"}

    # -- helpers -----------------------------------------------------------
    def _parent_ok(self, path):
        return self.model.get(parent_of(path)) == "dir"

    def _has_children(self, path):
        prefix = path.rstrip("/") + "/"
        return any(p.startswith(prefix) for p in self.model)

    # -- rules ---------------------------------------------------------------
    @rule(path=paths)
    def mkdir(self, path):
        should_fail = path in self.model or not self._parent_ok(path)
        try:
            self.ns.mkdir(path)
            assert not should_fail
            self.model[path] = "dir"
        except (FileExists, FileNotFound, NotADirectory):
            assert should_fail

    @rule(path=paths)
    def create(self, path):
        should_fail = path in self.model or not self._parent_ok(path)
        try:
            self.ns.create(path)
            assert not should_fail
            self.model[path] = "file"
        except (FileExists, FileNotFound, NotADirectory):
            assert should_fail

    @rule(path=paths)
    def unlink(self, path):
        kind = self.model.get(path)
        try:
            self.ns.unlink(path)
            assert kind == "file"
            del self.model[path]
        except FileNotFound:
            assert kind is None or not self._parent_ok(path)
        except (IsADirectory, NotADirectory):
            assert kind == "dir" or not self._parent_ok(path)

    @rule(path=paths)
    def rmdir(self, path):
        kind = self.model.get(path)
        try:
            self.ns.rmdir(path)
            assert kind == "dir" and not self._has_children(path)
            del self.model[path]
        except FileNotFound:
            assert kind is None
        except NotADirectory:
            assert kind == "file" or not self._parent_ok(path)
        except DirectoryNotEmpty:
            assert self._has_children(path)

    @rule(path=paths)
    def rmdir_recursive(self, path):
        kind = self.model.get(path)
        try:
            removed = self.ns.rmdir(path, recursive=True)
            assert kind == "dir"
            doomed = [p for p in self.model
                      if p == path or p.startswith(path.rstrip("/") + "/")]
            assert removed == len(doomed)
            for p in doomed:
                del self.model[p]
        except FileNotFound:
            assert kind is None
        except NotADirectory:
            assert kind == "file" or not self._parent_ok(path)

    @rule(path=paths)
    def getattr(self, path):
        kind = self.model.get(path)
        try:
            inode = self.ns.getattr(path)
            assert kind == ("dir" if inode.is_dir else "file")
        except (FileNotFound, NotADirectory):
            assert kind is None

    @rule(path=paths)
    def readdir(self, path):
        kind = self.model.get(path)
        prefix = path.rstrip("/") + "/"
        try:
            names = self.ns.readdir(path)
            assert kind == "dir"
            expected = sorted({p[len(prefix):].split("/")[0]
                               for p in self.model if p.startswith(prefix)})
            assert names == expected
        except (FileNotFound, NotADirectory):
            assert kind != "dir"

    # -- invariants -----------------------------------------------------------
    @invariant()
    def entry_count_matches(self):
        assert self.ns.count_entries() == len(self.model) - 1

    @invariant()
    def walk_matches_model(self):
        seen = {path: ("dir" if inode.is_dir else "file")
                for path, inode in self.ns.walk("/")}
        assert seen == self.model


TestNamespaceModel = NamespaceMachine.TestCase
TestNamespaceModel.settings = settings(max_examples=60,
                                       stateful_step_count=50,
                                       deadline=None)
