"""Dead-surface guard: nothing public that nobody references, nothing
imported that is not used.

Six static checks over ``src/repro`` (``ast`` + regex, no dependency),
and one over live signatures:

* every public function, class, method and module- or class-level
  attribute (constants, dataclass fields) defined there is mentioned at
  least once *outside its own definition* somewhere in ``src/``,
  ``tests/``, ``benchmarks/``, ``examples/``, ``docs/`` or a root ``*.md``
  — an accessor nothing reads is a promise nobody checks, and a settable
  field nothing reads is a knob that does nothing;
* every name a non-``__init__`` module imports is used in that module or
  re-exported through its ``__all__`` — the local stand-in for flake8's
  ``F401``, which CI runs (flake8 is not installed in every dev image);
* imports of ``repro`` modules sit at module level: a function-level one
  dodges an import cycle, so each survivor is listed here with its
  reason and the list only shrinks;
* a process that only sleeps yields the bare delay: no ``yield`` of a
  freshly built ``Timeout`` outside the kernel, so a sleep has one
  spelling (``Timeout`` stays for composing and for callbacks) — and a
  process that wants a slot yields the ``Resource``: no ``yield`` of an
  ``.acquire()`` call anywhere;
* one simulated process is one client: no recorder, sketch or commit
  message takes a ``weight``, and ``PaconConfig`` keeps its 12 fields —
  the aggregate client stays deleted;
* an op in the commit window is an object: the in-flight counters, the
  hub-only shadow list and the second committed count stay deleted, and
  the version-lag ledger forgets an op at one site per way out of the
  pipeline (resolved in ``CommitProcess._resolve``, lost in
  ``fail_node``).

The reference check is by word, not by resolved binding: a name shared by
several definitions passes as soon as the corpus mentions it more often
than it is defined.  That is deliberately lenient — the guard exists to
catch surface that is referenced *nowhere*, not to prove call graphs.
"""

import ast
import dataclasses
import inspect
import re
from collections import Counter
from pathlib import Path

from repro.core import client as client_module
from repro.core.commit import OpMessage
from repro.core.config import PaconConfig
from repro.obs.hub import MetricsHub
from repro.obs.sketch import QuantileSketch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CORPUS_DIRS = ("src", "tests", "benchmarks", "examples", "docs")

#: ``Service.request`` dispatches to ``handle_<method>`` by string, so an
#: RPC handler is referenced by any quoted mention of its method name.
DISPATCH_PREFIX = "handle_"


def _source_files():
    return sorted(SRC.rglob("*.py"))


def _corpus_words() -> Counter:
    words: Counter = Counter()
    files = [p for d in CORPUS_DIRS for p in (ROOT / d).rglob("*")
             if p.suffix in (".py", ".md")]
    files += list(ROOT.glob("*.md"))
    for path in files:
        if path.name == "ISSUE.md" or "__pycache__" in path.parts:
            continue
        words.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return words


def _public_definitions():
    """``(name, file, line)`` for module- and class-level public defs and
    attributes (``X = ...`` / ``x: T = ...``)."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def visit(body, path):
        for node in body:
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = ([node.target.id]
                         if isinstance(node.target, ast.Name) else [])
            elif isinstance(node, kinds):
                names = [node.name]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    yield name, path, node.lineno
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, path)

    for path in _source_files():
        yield from visit(ast.parse(path.read_text()).body, path)


def test_every_public_definition_is_referenced_somewhere():
    words = _corpus_words()
    definitions = list(_public_definitions())
    defined = Counter(name for name, _p, _l in definitions)
    dead = []
    for name, path, line in definitions:
        if words[name] > defined[name]:
            continue
        if (name.startswith(DISPATCH_PREFIX)
                and words[name[len(DISPATCH_PREFIX):]] > 0):
            continue
        dead.append(f"{path.relative_to(ROOT)}:{line} {name}")
    assert not dead, ("public names nothing references (delete them, or"
                      " make them private):\n  " + "\n  ".join(dead))


def _annotation_words(tree) -> set:
    """Words inside string annotations (``x: "Tracer"``)."""
    out: set = set()
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, ast.arg):
            notes.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes.append(node.annotation)
        for note in notes:
            if note is None:
                continue
            for sub in ast.walk(note):
                if isinstance(sub, ast.Constant) and isinstance(sub.value,
                                                                str):
                    out.update(re.findall(r"[A-Za-z_]\w*", sub.value))
    return out


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_words(tree)
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in ast.walk(node.value)
                     if isinstance(elt, ast.Constant)}
    return [(name, line) for name, line in sorted(imported.items())
            if name not in used]


def test_every_import_is_used_or_reexported():
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in _source_files() if path.name != "__init__.py"
              for name, line in _unused_imports(path)]
    assert not unused, "unused imports (F401):\n  " + "\n  ".join(unused)


#: Indented ``from repro...`` imports that remain.  The two in
#: ``core/autoscale.py`` sit under ``if TYPE_CHECKING:`` and dodge a real
#: cycle (``core.config`` imports ``AutoscalePolicy`` from there); the
#: other five predate this guard, touch neither ``repro.obs`` nor
#: ``repro.sim.trace``, and were left as found.  The set only shrinks:
#: hoist one and delete its row; a new one needs a row and a reason.
LAZY_IMPORTS = {
    ("core/autoscale.py", "repro.core.deploy"),
    ("core/autoscale.py", "repro.core.region"),
    ("core/region.py", "repro.core.commit"),
    ("core/client.py", "repro.core.permissions"),
    ("baselines/indexfs.py", "repro.dfs.errors"),
    ("dfs/client.py", "repro.dfs.storage"),
    ("bench/table1.py", "repro.sim.core"),
}


def _indented_repro_imports():
    found = set()
    for path in _source_files():
        tree = ast.parse(path.read_text())
        top_level = set(map(id, tree.body))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and id(node) not in top_level
                    and (node.module or "").startswith("repro")):
                found.add((path.relative_to(SRC).as_posix(), node.module))
    return found


def test_repro_imports_sit_at_module_level():
    found = _indented_repro_imports()
    assert found <= LAZY_IMPORTS, (
        "new function-level repro imports (hoist them, or name the cycle"
        f" in LAZY_IMPORTS): {sorted(found - LAZY_IMPORTS)}")
    assert LAZY_IMPORTS <= found, (
        f"stale LAZY_IMPORTS rows: {sorted(LAZY_IMPORTS - found)}")
    assert not any(module.startswith(("repro.obs", "repro.sim.trace"))
                   for _path, module in found)


def _yielded_timeouts():
    found = []
    for path in _source_files():
        if path == SRC / "sim" / "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            call = node.value if isinstance(node, ast.Yield) else None
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                getattr(func, "id", None)
            if name in ("timeout", "Timeout"):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return found


def test_a_sleep_is_a_bare_delay():
    assert _yielded_timeouts() == [], (
        "yield the delay itself (a float), not a Timeout built on the"
        " spot — docs/kernel.md, 'Sleeping'")


def _yielded_acquires():
    found = []
    for path in _source_files():
        for node in ast.walk(ast.parse(path.read_text())):
            call = node.value if isinstance(node, ast.Yield) else None
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "acquire"):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    return found


def test_a_grant_is_a_yielded_resource():
    assert _yielded_acquires() == [], (
        "yield the Resource itself, not an acquire() event built on the"
        " spot — docs/kernel.md, 'Parking'")


def test_an_observation_is_one_client():
    # Scoped to the surfaces the aggregate client threaded a weight
    # through; ConsistentHashRing.add(weight=) and the incident
    # CAUSE_WEIGHTS are unrelated.
    recorders = [getattr(MetricsHub, name) for name in (
        "observe_op", "observe", "observe_staleness", "observe_visibility")]
    for fn in recorders + [QuantileSketch.observe]:
        assert "weight" not in inspect.signature(fn).parameters, \
            fn.__qualname__
    assert "weight" not in {f.name for f in dataclasses.fields(OpMessage)}
    assert client_module.__all__ == ["PaconClient"]
    assert [f.name for f in dataclasses.fields(PaconConfig)] == [
        "workspace", "uid", "gid", "small_file_threshold", "parent_check",
        "permissions", "cache_capacity_bytes", "commit_batch_size",
        "commit_coalesce", "commit_queue_capacity", "checkpoint_interval",
        "autoscale"]


#: Names of the counter-based commit window and its hub-only ledger
#: shadow, and the second committed count beside ``cp.committed``.
COMMIT_WINDOW_REMNANTS = ("_in_flight", "_in_flight_settled",
                          "_in_flight_oldest", "_in_flight_msgs",
                          "_ledger_untrack", "_resolve_ledger",
                          "ops_committed +=")


def test_an_op_in_the_commit_window_is_an_object():
    sources = {path: path.read_text() for path in _source_files()}
    for name in COMMIT_WINDOW_REMNANTS:
        found = [str(path.relative_to(SRC))
                 for path, text in sources.items() if name in text]
        assert not found, f"{name!r} is back in {found}"
    calls = sum(text.count(".note_op_resolved(") for text in sources.values())
    assert calls == 2
