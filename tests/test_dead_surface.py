"""Dead-surface guard: nothing public that nobody references, nothing
imported that is not used.

Seven static checks over ``src/repro`` (``ast`` + regex, no dependency),
and two over live objects:

* every public function, class, method and module- or class-level
  attribute (constants, dataclass fields) defined there is mentioned at
  least once *outside its own definition* somewhere in ``src/``,
  ``tests/``, ``benchmarks/``, ``examples/``, ``docs/`` or a root ``*.md``
  — an accessor nothing reads is a promise nobody checks, and a settable
  field nothing reads is a knob that does nothing;
* every public function, method and class has a caller outside
  ``tests/``: its name is mentioned in ``src/`` more often than it is
  defined there, or somewhere in ``benchmarks/`` or ``examples/`` —
  behaviour only a test reaches is deleted, bar a short allowlist of
  observers tests read to check live behaviour;
* every name a non-``__init__`` module imports is used in that module or
  re-exported through its ``__all__`` — the local stand-in for flake8's
  ``F401``, which CI runs (flake8 is not installed in every dev image);
* imports of ``repro`` modules sit at module level: a function-level one
  dodges an import cycle, so each survivor is listed here with its
  reason and the list only shrinks;
* the IndexFS store keeps only what IndexFS charges for: no write-ahead
  log module, no ``LSMTree`` sync, crash or replay (the log is the
  ``lsm_wal_append`` cost constant), no ``RngStreams.child``, and one
  mode path in the commit pipeline (no ``_committed_mode``);
* one wait spelling: the kernel's event forms of a wait (``Timeout``,
  ``AnyOf``, ``AllOf``, ``Resource.acquire`` and their helpers) are
  defined nowhere, and nothing calls ``.timeout(``, which is kept only
  for ``benchmarks/perf`` — a process sleeps on a bare delay and takes a
  slot by yielding the ``Resource``; likewise a get and a barrier
  arrival are parks (no ``Event._on_cancel`` slot, no ``_cancel_get`` /
  ``_cancel_arrival``, no ``_kernel._Resource`` registration), and
  nothing calls ``.arrive(`` or a zero-argument ``.get()``, kept only
  for ``benchmarks/perf``;
* one run loop: ``Environment.run`` holds a single ``while``, the
  environment takes no knob (it starts at 0.0) and ``Cluster`` has no
  ``run`` pass-through;
* one simulated process is one client: no recorder, sketch or commit
  message takes a ``weight``, and ``PaconConfig`` keeps its 9 fields —
  the aggregate client stays deleted;
* an op in the commit window is an object: the in-flight counters, the
  hub-only shadow list and the second committed count stay deleted, and
  the version-lag ledger forgets an op at one site per way out of the
  pipeline (resolved in ``CommitProcess._resolve``, lost in
  ``fail_node``);
* one frame per commit stage: the commit loop, its drain, the lone-op
  attempt and the post-commit CAS loop stay inlined
  (``tests/core/test_commit.py::TestCommitFrames`` pins the depth);
* one simulation, one verb: the six CLI verbs that re-ran a simulation
  another verb already runs stay argparse errors — and one knob, one
  place: ``PaconConfig.small_file_threshold`` is the only small-file
  threshold, and every option has a caller that sets it
  (``AutoscalePolicy`` has no ``burn_threshold``, ``make_testbed`` takes
  its 10 parameters, ``recover_node`` always restarts the commit
  process, ``CostModel`` has no presets but ``zero`` and no
  ``publish_stall`` attribution bucket is left; the constructors and
  calls whose defaulted parameters nothing set keep the signatures
  pinned there, so a deleted knob cannot quietly come back, and the
  wrappers only tests called stay deleted);
* one snapshot module: ``repro.bench.snapshot`` writes, reads, compares
  and folds ``pacon.bench/v1`` (no ``bench/baseline.py``, no
  ``runner.write_snapshot_file``), ``compare`` has no ``--tolerance``,
  and only ``obs/schema.py`` compares a document's schema string.

The reference check is by word, not by resolved binding: a name shared by
several definitions passes as soon as the corpus mentions it more often
than it is defined.  That is deliberately lenient — the guard exists to
catch surface that is referenced *nowhere*, not to prove call graphs.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from repro.bench import runner
from repro.bench.snapshot import compare_snapshots
from repro.bench.systems import make_testbed
from repro.cli import build_parser
from repro.core import client as client_module
from repro.baselines.indexfs import IndexFS
from repro.core.autoscale import AutoscalePolicy, Autoscaler
from repro.core.commit import CommitProcess, OpMessage
from repro.core.config import PaconConfig
from repro.core.deploy import PaconDeployment, PaconFS
from repro.core.failure import recover_node
from repro.dfs.beegfs import BeeGFS
from repro.dfs.mds import MetadataServer
from repro.dfs import namespace
from repro.dfs.namespace import Namespace
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.dht import ConsistentHashRing
from repro.kvstore.lsm import LSMTree, WriteReceipt
from repro.kvstore.memkv import Item, MemKV
from repro.obs.hub import MetricsHub
from repro.obs.sketch import QuantileSketch, Series
from repro.obs.timeline import Timeline
from repro.sim.core import Environment, Event
from repro.sim.costs import CostModel
from repro import sim
from repro.sim.network import Cluster, Node, Service
from repro.sim.rng import RngStreams
from repro.sim.trace import ATTRIBUTION_BUCKETS, Tracer
from repro.workloads import mdtest

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


#: Observers only tests read, each to check behaviour a workload runs:
#: the inode type test beside ``is_dir``, a data server's byte count
#: (striping), a bloom filter's fill (sizing), the memtable's length and
#: the level sizes (flush, and the compaction ``benchmarks/perf`` counts),
#: and a resource's or a booked pool's slot and queue counts (the
#: kernel's grant and park paths; a NIC's or a cache shard's bookings).
TEST_OBSERVERS = {
    ("Inode", "is_file"),
    ("DataServer", "stored_bytes"),
    ("BloomFilter", "fill_ratio"),
    ("LSMTree", "memtable_size"),
    ("LSMTree", "l0_tables"),
    ("LSMTree", "l1_entries"),
    ("Resource", "in_use"),
    ("Resource", "queue_length"),
    ("BookedPool", "in_use"),
    ("BookedPool", "queue_length"),
}


def _word_counts(dirs) -> Counter:
    words: Counter = Counter()
    for d in dirs:
        for path in (ROOT / d).rglob("*.py"):
            words.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return words


def _test_only_callables():
    """``(class or None, name, file, line)`` of each public function,
    method or class nothing outside ``tests/`` mentions."""
    in_src = _word_counts(["src"])
    outside = _word_counts(["benchmarks", "examples"])
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []

    def visit(body, path, owner):
        for node in body:
            if not isinstance(node, kinds):
                continue
            if not node.name.startswith("_"):
                found.append((owner, node.name, path, node.lineno))
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, node.name)

    for path in _source_files():
        visit(ast.parse(path.read_text()).body, path, None)
    defined = Counter(name for _o, name, _p, _l in found)
    return [(owner, name, path, line) for owner, name, path, line in found
            if not name.startswith(DISPATCH_PREFIX)
            and in_src[name] <= defined[name] and outside[name] == 0]


def test_every_public_callable_has_a_caller_outside_the_tests():
    flagged = _test_only_callables()
    found = {(owner, name) for owner, name, _p, _l in flagged}
    dead = [f"{path.relative_to(ROOT)}:{line} {owner or ''}.{name}"
            for owner, name, path, line in flagged
            if (owner, name) not in TEST_OBSERVERS]
    assert not dead, ("behaviour only tests reach (delete it, or name the"
                      " live behaviour it observes in TEST_OBSERVERS):\n  "
                      + "\n  ".join(dead))
    assert TEST_OBSERVERS <= found, (
        f"stale TEST_OBSERVERS rows: {sorted(TEST_OBSERVERS - found)}")


def test_the_indexfs_store_keeps_only_what_indexfs_charges_for():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.kvstore.wal")
    lsm = LSMTree()
    for name in ("wal", "sync", "crash", "recover"):
        assert not hasattr(lsm, name), name
    assert "auto_sync_wal" not in inspect.signature(LSMTree).parameters
    assert [f.name for f in dataclasses.fields(WriteReceipt)] == [
        "flushed_entries", "compacted_entries"]
    assert not hasattr(RngStreams, "child")
    assert not hasattr(CommitProcess, "_committed_mode")


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
    """flake8's F401 over ``src/repro`` and ``tests/``: every imported
    name (``from __future__`` aside) is read, or re-exported by a package
    ``__init__``."""
    files = [*_source_files(), *sorted((ROOT / "tests").rglob("*.py"))]
    unused = [f"{path.relative_to(ROOT)}:{line} {name}"
              for path in files if path.name != "__init__.py"
              for name, line in _unused_imports(path)]
    assert not unused, "unused imports (F401):\n  " + "\n  ".join(unused)


#: Indented ``from repro...`` imports that remain: the two in
#: ``core/autoscale.py`` sit under ``if TYPE_CHECKING:`` and dodge a real
#: cycle (``core.config`` imports ``AutoscalePolicy`` from there).  The
#: set only shrinks: a new one needs a row and the cycle it dodges.
LAZY_IMPORTS = {
    ("core/autoscale.py", "repro.core.deploy"),
    ("core/autoscale.py", "repro.core.region"),
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


#: The kernel's deleted event forms of a wait, as defined names, and
#: ``timeout(`` for a call of ``Environment.timeout``.
SLEEP_REMNANTS = ("Timeout", "_fire_timeout", "AnyOf", "AllOf", "any_of",
                  "timeout(")
GRANT_REMNANTS = ("acquire", "_cancel_acquire")


def _wait_remnants(names):
    found = []
    for path in _source_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                name = node.func.attr + "("
            else:
                continue
            if name in names:
                found.append(f"{path.relative_to(SRC)}:{node.lineno} {name}")
    return found


def test_a_sleep_is_a_bare_delay():
    assert _wait_remnants(SLEEP_REMNANTS) == [], (
        "yield the delay itself (a float) — docs/kernel.md, 'Sleeping';"
        " env.timeout() is kept only for benchmarks/perf")


def test_a_grant_is_a_yielded_resource():
    assert _wait_remnants(GRANT_REMNANTS) == [], (
        "yield the Resource itself — docs/kernel.md, 'Parking'")


def _get_arrive_and_registry_remnants():
    """``.arrive(`` and zero-argument ``.get()`` calls, and assignments to
    an attribute named ``_Resource``, under ``src/repro``."""
    found = []
    for path in _source_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func,
                                                         ast.Attribute):
                attr = node.func.attr
                if attr == "arrive" or (attr == "get" and not node.args
                                        and not node.keywords):
                    found.append(f"{path.relative_to(SRC)}:{node.lineno}"
                                 f" .{attr}(")
            elif isinstance(node, ast.Assign):
                found += [f"{path.relative_to(SRC)}:{node.lineno} _Resource"
                          for target in node.targets
                          if isinstance(target, ast.Attribute)
                          and target.attr == "_Resource"]
    return found


def test_a_get_and_an_arrival_are_parks():
    assert "_on_cancel" not in Event.__slots__
    assert _wait_remnants(("_cancel_get", "_cancel_arrival")) == []
    assert _get_arrive_and_registry_remnants() == [], (
        "yield the MessageQueue or the Barrier itself — docs/kernel.md,"
        " 'Parking'; get() and arrive() are kept only for benchmarks/perf")


def test_one_run_loop():
    loops = [node for node in ast.walk(ast.parse(textwrap.dedent(
        inspect.getsource(Environment.run)))) if isinstance(node, ast.While)]
    assert len(loops) == 1, "Environment.run inlines one loop"
    assert list(inspect.signature(Environment.__init__).parameters) == [
        "self"]
    assert "run" not in vars(Cluster), "drive cluster.env.run() directly"


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


#: Commit-path frames folded into their callers: each was one more
#: ``yield from`` level on every resume of a commit-side RPC.
FOLDED_COMMIT_FRAMES = ("_loop", "_dispatch_batch", "_attempt_single",
                        "_after_commit")


@pytest.mark.parametrize("name", FOLDED_COMMIT_FRAMES)
def test_one_frame_per_commit_stage(name):
    assert not hasattr(CommitProcess, name)


#: Verbs that re-ran a simulation another verb already runs: ``stats``,
#: ``trace`` and ``profile`` are ``mdtest`` output flags, ``chaos``,
#: ``incidents`` and ``elastic`` are ``figure chaos|elastic``.
DELETED_VERBS = ("stats", "trace", "profile", "chaos", "incidents",
                 "elastic")


@pytest.mark.parametrize("verb", DELETED_VERBS)
def test_one_verb_per_simulation(verb, capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([verb])
    assert "invalid choice" in capsys.readouterr().err


def test_one_knob_one_place():
    assert "small_file_threshold" not in {
        f.name for f in dataclasses.fields(CostModel)}
    assert "burn_threshold" not in {
        f.name for f in dataclasses.fields(AutoscalePolicy)}
    assert list(inspect.signature(make_testbed).parameters) == [
        "system", "n_apps", "nodes_per_app", "clients_per_node",
        "workdir_base", "costs", "seed", "n_mds", "hub",
        "commit_batch_size"]
    assert list(inspect.signature(recover_node).parameters) == [
        "region", "node"]
    # Defaulted parameters no run, test or src call set, deleted; the
    # reach census (tests/reach_census.py) finds the next ones.
    pins = {
        BeeGFS: ["cluster", "n_mds", "n_data"],
        PaconFS: ["workspace", "nodes", "config"],
        Node: ["env", "node_id", "name", "nic_channels"],
        Cluster.add_node: ["self", "name"],
        Cluster.add_nodes: ["self", "count", "prefix"],
        MetadataServer: ["cluster", "node", "namespace", "name"],
        Namespace: [],
        MemKV.set: ["self", "key", "value"],
        MemKV.add: ["self", "key", "value"],
        MemKV.cas: ["self", "key", "value", "cas_token"],
        MetricsHub.attach_region: ["self", "region"],
        # The DFS checks permissions on every request; uid 0 is the one
        # caller that skips them (no ``check_perms`` switch).
        Namespace.getattr: ["self", "path", "uid", "gid"],
        Namespace.readdir: ["self", "path", "uid", "gid"],
        Namespace.mkdir: ["self", "path", "mode", "uid", "gid", "now"],
        Namespace.create: ["self", "path", "mode", "uid", "gid"],
        Namespace.unlink: ["self", "path", "uid", "gid", "now"],
        Namespace.rmdir: ["self", "path", "uid", "gid", "now", "recursive"],
        Namespace.setattr: ["self", "path", "uid", "gid", "now", "mode",
                            "size", "new_uid", "new_gid"],
        Namespace._resolve: ["self", "path", "uid", "gid"],
        Namespace._walk: ["self", "parts", "uid", "gid"],
        Namespace._resolve_parent: ["self", "path", "uid", "gid"],
        Namespace._make: ["self", "ftype", "path", "mode", "uid", "gid",
                          "now"],
        Namespace._check_parent_write: ["self", "parent", "path", "uid",
                                        "gid"],
        MetadataServer._mutate: ["self", "op", "path", "mode", "uid", "gid",
                                 "token", "service_time"],
        MetadataServer.handle_create: ["self", "path", "mode", "uid", "gid",
                                       "token"],
        # Paper constants are module constants, not test seams.
        IndexFS: ["cluster", "server_nodes", "memtable_limit"],
        IndexFS.server_for_entry: ["self", "dir_path", "name"],
        LSMTree: ["memtable_limit", "name"],
        BloomFilter: ["expected_items"],
        ConsistentHashRing: [],
        QuantileSketch: ["name"],
        Series: ["name"],
        Autoscaler: ["deployment", "region", "node_factory"],
    }
    for fn, params in pins.items():
        assert list(inspect.signature(fn).parameters) == params, fn
    factory = inspect.signature(Autoscaler).parameters["node_factory"]
    assert factory.default is inspect.Parameter.empty
    # Wrappers only tests called stay deleted: tests call what runs call.
    for owner, name in [
            (PaconDeployment, "grow_region"),
            (PaconDeployment, "retire_node"),
            (PaconFS, "__enter__"),
            (PaconFS, "__exit__"),
            (Tracer, "span_tree"),
            (Tracer, "attribution"),
            (Tracer, "clear"),
            (Timeline, "clear"),
            (Autoscaler, "_default_factory"),
            (namespace, "basename"),
            (mdtest, "leaf_dirs")]:
        assert not hasattr(owner, name), (owner, name)
    assert not hasattr(Tracer(), "_sample_base")
    assert "flags" not in {f.name for f in dataclasses.fields(Item)}
    assert not hasattr(sim, "NetworkParams")
    cluster = Cluster()
    service = Service(cluster, cluster.add_node(), "s")
    assert not hasattr(service, "requests_by_method")
    assert not hasattr(CostModel, "slow_network")
    assert not hasattr(CostModel, "tianhe2_like")
    assert "publish_stall" not in ATTRIBUTION_BUCKETS


def _compares_a_schema(node) -> bool:
    """Does this comparison test a schema string: ``BENCH_SCHEMA``, the
    literal, a ``"schema"`` key, or a local named ``*schema``?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id.lower().endswith("schema"):
            return True
        if isinstance(sub, ast.Constant) and sub.value in (
                "schema", "pacon.bench/v1"):
            return True
    return False


def test_one_snapshot_module():
    assert not (SRC / "bench" / "baseline.py").exists()
    assert not hasattr(runner, "write_snapshot_file")
    verbs = next(action for action in build_parser()._actions
                 if action.dest == "command")
    flags = {flag for action in verbs.choices["compare"]._actions
             for flag in action.option_strings}
    assert "--tolerance" not in flags
    assert list(inspect.signature(compare_snapshots).parameters) == [
        "baseline", "candidate"]
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in _source_files()
             if path.relative_to(SRC).as_posix() != "obs/schema.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Compare) and _compares_a_schema(node)]
    assert found == [], "obs.schema.validate_bench checks the version"

