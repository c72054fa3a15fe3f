"""Reach census: every function under ``src/repro`` runs in a workload,
and every defaulted parameter is set by something, or is named below with
the reason it may stay unreached or unset.

    PYTHONPATH=src python tests/reach_census.py

One process runs every CLI verb with each documented option that reaches
code of its own, every figure the zero-drift gates run, the paper-shape
benches (``benchmarks/bench_*.py``), every example, the kernel-throughput
script and each ``benchmarks/perf`` workload, with
a ``sys.setprofile`` hook that records the code object of every ``call``
event.  Every ``def`` in
``src/repro`` (found with ``ast``) is then matched to those code objects
by file, first line (a decorated function starts at its first
decorator) and name.

The same hook checks parameters.  At a call of a ``src/repro`` function
with defaulted parameters (the function object found from the code's
qualified name in its module's globals, through ``__wrapped__`` for the
``@_traced`` client ops; a generator only at its first resume), it
records each parameter whose value is ``!=`` its default (an exception
from the comparison counts as a difference).  A defaulted parameter no
run sets that way is still *set* when some call in ``src/repro``,
``tests``, ``benchmarks`` or ``examples`` passes it by keyword or
position: an ``ast`` pass matched on the callee's name (a class's name
for its ``__init__``) and credited to a ``def`` of that name only when
the call's positional count and keywords can bind its signature, so
that a call to one same-named function does not set another's
parameter; still coarse on purpose, so that it can only under-report.
Every other defaulted parameter is *unset*.  A parameter that only
calls under ``tests/`` pass is *tests only*.  Nested
functions are checked by the ``ast`` pass alone, and the generated
``__init__`` of a dataclass (``PaconConfig``, ``AutoscalePolicy``,
``CostModel``, ``MdtestConfig``) has no ``def`` in a source file, so its
fields are out of scope here.

Exit status 1 when a function no run reaches has no row in
:data:`ALLOWLIST`, when an unset or tests-only parameter has no row in
:data:`PARAM_ALLOWLIST`, or when a row of either is stale: its function
is reached now, its parameter is set by a run or by a call outside
``tests/`` now, or it no longer exists.  Both allowlists may only
shrink.  The file is not named ``test_*.py``, so
pytest does not collect it (it takes about a minute).

    PYTHONPATH=src python tests/reach_census.py --params

runs the same census and lists every defaulted parameter no run sets,
with who does set it: nobody or tests only (each with its allowlist
row's reason), or a file outside ``tests/`` whose call no run makes.  A
report, not a gate: it exits 0.  It is the list the "two non-test
callers that set an option to different values" rule is judged from.

    PYTHONPATH=src python tests/reach_census.py --lines FILE...

runs the same workloads under ``sys.settrace`` instead, tracing only the
frames of the named files, and lists the executable lines of those files
(lines that carry bytecode) that no run executed.  A report, not a gate:
it exits 0.  Naming one or two files keeps it cheap; every file of
``src/repro`` under line tracing takes about ten times the function
census.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import dis
import inspect
import io
import os
import runpy
import sys
import tempfile
import time
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

# -- why a function may go unreached ------------------------------------------

PERF = "only benchmarks/perf reaches it: a spelling its probes still use"
PAPER = ("paper semantics awaiting a workload: eviction (§III.F), chmod and"
         " the special list (§III.C), fsync (§III.D.2), periodic"
         " checkpoints")
PAPER_SCALE = ("reached only at paper scale, which no gate runs: LSM flush,"
               " SSTables, bloom filters")
COMPACTION = ("LSM compaction: no row compacts at any scale, yet"
              " benchmarks/perf reports the compaction counters")
FAULT = "a fault, cancel or misuse path no healthy run takes"
DISCARD = ("the discard rule (§III.D.1): no run queues an op under a"
           " directory removed before the op commits")
TRACED_COALESCE = ("a create and its rm coalescing in a traced run: no"
                   " observed run removes what it just created")
OBSERVER = "a test observer of behaviour a workload runs"
REFERENCE = "the plain form a property test compares the fast path with"
TEST_API = "a convenience only tests call, over code a workload runs"

#: ``"<path under src/repro>::<Class>.<function>"`` -> why no workload
#: reaches it.  Rows only ever go: reach the function, or delete it.
ALLOWLIST: Dict[str, str] = {
    "bench/report.py::ExperimentResult.fail": FAULT,
    "bench/snapshot.py::simulated_view": OBSERVER,
    "chaos/engine.py::ChaosSchedule.__len__": OBSERVER,
    "core/autoscale.py::Autoscaler.stop": TEST_API,
    "core/cache.py::DistributedCache.delete": PAPER,
    "core/cache.py::DistributedCache.scan_subtree": PAPER,
    "core/checkpoint.py::CheckpointManager.run": PAPER,
    "core/client.py::PaconClient.chmod": PAPER,
    "core/client.py::PaconClient.chmod.apply": PAPER,
    "core/client.py::PaconClient.fsync": PAPER,
    "core/client.py::PaconClient.fsync.set_shadow": PAPER,
    "core/commit.py::CommitProcess._discard": DISCARD,
    "core/deploy.py::PaconDeployment.evictor": PAPER,
    "core/deploy.py::PaconFS.chmod": PAPER,
    "core/deploy.py::PaconFS.fsync": PAPER,
    "core/eviction.py::EvictionManager.__init__": PAPER,
    "core/eviction.py::EvictionManager._evict_entry": PAPER,
    "core/eviction.py::EvictionManager._flush_inline": PAPER,
    "core/eviction.py::EvictionManager._top_level_entries": PAPER,
    "core/eviction.py::EvictionManager._top_of": PAPER,
    "core/eviction.py::EvictionManager.evict_once": PAPER,
    "core/eviction.py::EvictionManager.pressured_shards": PAPER,
    "core/eviction.py::EvictionManager.run": PAPER,
    "core/eviction.py::EvictionManager.under_pressure": PAPER,
    "core/permissions.py::RegionPermissions._has_normal_ancestor": PAPER,
    "core/permissions.py::RegionPermissions.add_special": PAPER,
    "core/permissions.py::RegionPermissions.check": REFERENCE,
    "core/permissions.py::RegionPermissions.check_op": REFERENCE,
    "core/permissions.py::RegionPermissions.effective": PAPER,
    "core/permissions.py::RegionPermissions.special": PAPER,
    "core/region.py::ConsistentRegion.fence_chmod": FAULT,
    "core/region.py::ConsistentRegion.fence_rmdir": FAULT,
    "core/region.py::RegionManager.__len__": OBSERVER,
    "core/region.py::RegionManager.regions": OBSERVER,
    "dfs/inode.py::Inode.is_file": OBSERVER,
    "dfs/namespace.py::Namespace.getattr": TEST_API,
    "dfs/storage.py::DataServer.stored_bytes": OBSERVER,
    "kvstore/bloom.py::BloomFilter.__contains__": OBSERVER,
    "kvstore/bloom.py::BloomFilter.__init__": PAPER_SCALE,
    "kvstore/bloom.py::BloomFilter.add": PAPER_SCALE,
    "kvstore/bloom.py::BloomFilter.fill_ratio": OBSERVER,
    "kvstore/bloom.py::BloomFilter.might_contain": PAPER_SCALE,
    "kvstore/bloom.py::_seeds": PAPER_SCALE,
    "kvstore/dht.py::ConsistentHashRing.__len__": OBSERVER,
    "kvstore/dht.py::ConsistentHashRing.distribution": OBSERVER,
    "kvstore/dht.py::ConsistentHashRing.members": OBSERVER,
    "kvstore/lsm.py::LSMTree.compact": COMPACTION,
    "kvstore/lsm.py::LSMTree.flush": PAPER_SCALE,
    "kvstore/lsm.py::LSMTree.l0_tables": OBSERVER,
    "kvstore/lsm.py::LSMTree.l1_entries": OBSERVER,
    "kvstore/lsm.py::LSMTree.memtable_size": OBSERVER,
    "kvstore/memkv.py::MemKV.__contains__": OBSERVER,
    "kvstore/memkv.py::MemKV.keys": OBSERVER,
    "kvstore/memkv.py::MemKV.usage_fraction": PAPER,
    "kvstore/sstable.py::SSTable.__init__": PAPER_SCALE,
    "kvstore/sstable.py::SSTable.__len__": OBSERVER,
    "kvstore/sstable.py::SSTable.get": PAPER_SCALE,
    "kvstore/sstable.py::SSTable.items": PAPER_SCALE,
    "kvstore/sstable.py::SSTable.key_in_range": PAPER_SCALE,
    "kvstore/sstable.py::SSTable.might_contain": PAPER_SCALE,
    "kvstore/sstable.py::SSTable.range": PAPER_SCALE,
    "kvstore/sstable.py::merge_tables": COMPACTION,
    "mq/queue.py::MessageQueue._cancel_park": FAULT,
    "mq/queue.py::MessageQueue.get": PERF,
    "mq/queue.py::QueueGroup.__len__": OBSERVER,
    "obs/sketch.py::QuantileSketch.__len__": OBSERVER,
    "obs/sketch.py::Series.__len__": OBSERVER,
    "obs/sketch.py::Series.last": OBSERVER,
    "obs/sketch.py::Series.points": OBSERVER,
    "obs/timeline.py::Timeline.__len__": OBSERVER,
    "sim/core.py::Environment.step": TEST_API,
    "sim/core.py::Environment.timeout": PERF,
    "sim/core.py::Event.__repr__": FAULT,
    "sim/core.py::Event.exception": OBSERVER,
    "sim/core.py::Event.fail": FAULT,
    "sim/core.py::Event.ok": OBSERVER,
    "sim/core.py::Event.processed": OBSERVER,
    "sim/core.py::Process.__repr__": FAULT,
    "sim/core.py::_Parked.__init__": FAULT,
    "sim/core.py::_Parked._on_cancel": FAULT,
    "sim/core.py::_bad_delay": FAULT,
    "sim/core.py::_withdraw": FAULT,
    "sim/costs.py::CostModel.zero": TEST_API,
    "sim/resources.py::Barrier._cancel_park": FAULT,
    "sim/resources.py::BookedPool.in_use": OBSERVER,
    "sim/resources.py::BookedPool.queue_length": OBSERVER,
    "sim/resources.py::Resource._cancel_park": FAULT,
    "sim/resources.py::Resource.in_use": OBSERVER,
    "sim/resources.py::Resource.queue_length": OBSERVER,
    "sim/trace.py::Span.duration": OBSERVER,
    "sim/trace.py::Span.render": OBSERVER,
    "sim/trace.py::Tracer.sampled": TRACED_COALESCE,
    "sim/trace.py::Tracer.spans": OBSERVER,
}

SUBCLASS = ("passed through a subclass (PermissionDenied(path, detail)),"
            " which the callee-name match cannot see")
FLUSH_ROW = ("ROADMAP 6(a): the memtable size a paper-scale IndexFS flush"
             " row will set")
PAPER_ROW = ("paper semantics no row runs yet (ROADMAP 16): periodic"
             " checkpoints, eviction, the special list (§III.C) and"
             " merged-region reads (§III.D.4)")
PAUSED_COMMIT = ("tests pause the commit pipeline to queue ops and drain"
                 " them as one batch")
RULES = ("tests feed hand-made incident rules to reach each detector"
         " branch; every run uses the default rule set")
CONFIG = ("tests hand the facade a full PaconConfig; the examples take"
          " the defaults")

#: ``"<path under src/repro>::<function>(<parameter>)"`` -> why nothing
#: but tests passes it.  Rows only ever go: pass it from a run, or delete
#: the parameter.
PARAM_ALLOWLIST: Dict[str, str] = {
    "baselines/indexfs.py::IndexFS.__init__(memtable_limit)": FLUSH_ROW,
    "core/deploy.py::PaconDeployment.checkpointer(keep)": PAPER_ROW,
    "core/deploy.py::PaconDeployment.create_region(start_commit)":
        PAUSED_COMMIT,
    "core/deploy.py::PaconDeployment.evictor(node)": PAPER_ROW,
    "core/deploy.py::PaconFS.__init__(config)": CONFIG,
    "core/permissions.py::RegionPermissions.__init__(special)": PAPER_ROW,
    "core/region.py::ConsistentRegion.merge(mutual)": PAPER_ROW,
    "dfs/errors.py::FSError.__init__(detail)": SUBCLASS,
    "obs/incidents.py::detect_incidents(rules)": RULES,
}

# -- recording ----------------------------------------------------------------

_seen: Dict[int, object] = {}
#: code id -> ``[first-resume offset or None, [(parameter, default)...]]``
#: for a ``src/repro`` function whose defaulted parameters no call has set
#: yet, or None once every one is set (or the function has none).
_watch: Dict[int, Optional[list]] = {}
#: code id -> the defaulted parameters some call passed a value ``!=``
#: the default.
_set_by_run: Dict[int, Set[str]] = {}
_SRC_PREFIX = os.path.realpath(SRC) + os.sep


def _hook(frame, event, _arg):
    if event == "call":
        code = frame.f_code
        key = id(code)
        if key not in _seen:
            _seen[key] = code  # held, so the id is never reused
            _watch[key] = _watched(frame)
        watch = _watch[key]
        if watch is not None:
            _check(frame, key, watch)


def _function(code: CodeType, namespace: dict):
    """The function object whose code ``code`` is, found from its
    qualified name in its module's globals (through staticmethod,
    classmethod, property and ``__wrapped__``), or None for a nested
    function."""
    parts = code.co_qualname.split(".")
    if "<locals>" in parts:
        return None
    owner = namespace.get(parts[0])
    for part in parts[1:]:
        owner = getattr(owner, "__dict__", {}).get(part)
    candidates = [owner]
    for attr in ("__func__", "fget", "fset", "fdel"):
        candidates.append(getattr(owner, attr, None))
    for fn in candidates:
        while fn is not None:
            if getattr(fn, "__code__", None) is code:
                return fn
            fn = getattr(fn, "__wrapped__", None)
    return None


def _watched(frame) -> Optional[list]:
    code = frame.f_code
    if not os.path.realpath(code.co_filename).startswith(_SRC_PREFIX):
        return None
    fn = _function(code, frame.f_globals)
    if fn is None:
        return None
    positional = code.co_varnames[:code.co_argcount]
    defaults = fn.__defaults__ or ()
    params = list(zip(positional[len(positional) - len(defaults):],
                      defaults))
    params += list((fn.__kwdefaults__ or {}).items())
    if not params:
        return None
    entry = None
    if code.co_flags & inspect.CO_GENERATOR:
        # A generator's frame raises a ``call`` event at every resume;
        # only the first one, at its ``RESUME 0``, sees the arguments.
        entry = next(i.offset for i in dis.get_instructions(code)
                     if i.opname == "RESUME" and i.arg == 0)
    return [entry, params]


def _check(frame, key: int, watch: list) -> None:
    entry, params = watch
    if entry is not None and frame.f_lasti > entry:
        return
    values = frame.f_locals
    left = []
    for name, default in params:
        value = values.get(name, default)
        if value is default:
            left.append((name, default))
            continue
        try:
            differs = bool(value != default)
        except Exception:
            differs = True
        if differs:
            _set_by_run.setdefault(key, set()).add(name)
        else:
            left.append((name, default))
    if left:
        watch[1] = left
    else:
        _watch[key] = None


#: ``--lines``: the real paths of the files whose lines are traced, each
#: ``co_filename`` seen resolved to one of them (or None), and every
#: ``(co_filename, line)`` that ran.
_traced: Set[str] = set()
_resolved: Dict[str, Optional[str]] = {}
_ran: Set[Tuple[str, int]] = set()


def _line_hook(frame, event, _arg):
    """Global trace function: a local tracer for frames of the traced
    files only, so every other frame runs without line events."""
    name = frame.f_code.co_filename
    if name not in _resolved:
        real = os.path.realpath(name)
        _resolved[name] = real if real in _traced else None
    if _resolved[name] is None:
        return None
    _ran.add((name, frame.f_lineno))
    return _line_local


def _line_local(frame, event, _arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _line_local


def _arm(on: bool) -> None:
    if _traced:
        sys.settrace(_line_hook if on else None)
    else:
        sys.setprofile(_hook if on else None)


def _run(label: str, action: Callable[[], object]) -> None:
    """Run one action with the hook armed, its output swallowed; fail
    loudly unless it exits 0."""
    out = io.StringIO()
    _arm(True)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                status = action()
            except SystemExit as stop:
                status = stop.code
    finally:
        _arm(False)
    if status not in (0, None):
        sys.stdout.write(out.getvalue()[-4000:])
        raise SystemExit(f"census run {label!r} exited {status}")


def _cli(*argv: str) -> None:
    def go():
        from repro.cli import main  # imported armed: decorators run here
        return main(list(argv))
    _run("pacon-bench " + " ".join(argv), go)


def _script(path: Path, *argv: str) -> None:
    def go():
        saved = sys.argv
        sys.argv = [str(path), *argv]
        try:
            runpy.run_path(str(path), run_name="__main__")
        finally:
            sys.argv = saved
    _run(f"{path.relative_to(ROOT)} {' '.join(argv)}", go)


def _benches() -> None:
    def go():
        import pytest
        return pytest.main([str(ROOT / "benchmarks"),
                            f"--ignore={ROOT / 'benchmarks' / 'perf'}",
                            "-q", "--benchmark-disable",
                            "-p", "no:cacheprovider"])
    _run("pytest benchmarks", go)


def _schema(*paths: str) -> None:
    def go():
        from repro.obs.schema import main
        return main(list(paths))
    _run("python -m repro.obs.schema", go)


def run_workloads(tmp: Path) -> None:
    """Every run the census counts as a workload."""
    def out(name: str) -> str:
        return str(tmp / name)

    # The gates: tier-1 baselines, CI jobs and the report.
    _cli("all", "--scale", "smoke", "--out", out("report.md"),
         "--metrics-out", out("all.metrics.json"),
         "--bench-label", "smoke", "--bench-out", out("BENCH_smoke.json"))
    _cli("figure", "chaos", "--scale", "smoke",
         "--metrics-out", out("chaos.metrics.json"),
         "--bench-out", out("BENCH_chaos.json"))
    for seed in ("7", "11"):
        _cli("figure", "chaos", "--scale", "smoke", "--seed", seed)
    _cli("figure", "elastic", "--scale", "smoke",
         "--metrics-out", out("elastic.metrics.json"))
    _cli("figure", "fig11_wide", "--scale", "smoke")
    for name in ("fig02", "fig09"):
        _cli("figure", name, "--scale", "ci")
    _cli("figure", "fig07", "--scale", "smoke",
         "--metrics-out", out("fig07.metrics.json"),
         "--trace-out", out("fig07.trace.json"))
    _schema(out("fig07.metrics.json"), out("BENCH_smoke.json"))
    _schema("--chaos", out("chaos.metrics.json"), out("BENCH_chaos.json"))
    # mdtest: every view of an observed run past the 2 047 ops that
    # ``sim/trace.py`` traces whole, and every phase on each system.
    _cli("mdtest", "--nodes", "2", "--clients-per-node", "4",
         "--items", "120", "--metrics-out", out("m.json"),
         "--profile-out", out("p.txt"), "--trace-out", out("t.json"),
         "--log-out", out("l.txt"), "--kind", "op.end", "--actor", "c0",
         "--top", "5", "--since", "1e-6", "--until", "1")
    small = ("--nodes", "2", "--clients-per-node", "2", "--items", "5")
    for system in ("pacon", "beegfs", "indexfs"):
        _cli("mdtest", "--system", system, *small,
             "--phases", "mkdir,create,stat,rm")
    # An IndexFS directory past its 2 000-entry split threshold: its
    # stats probe older GIGA+ partition generations.
    _cli("mdtest", "--system", "indexfs", "--nodes", "2",
         "--clients-per-node", "4", "--items", "130")
    for system in ("pacon", "beegfs"):
        _cli("madbench", "--system", system, "--nodes", "2",
             "--procs-per-node", "2", "--file-size", "65536")
    # The snapshot and SLO tooling.
    tiny = str(ROOT / "benchmarks" / "baseline_tiny.json")
    _cli("compare", tiny, out("BENCH_smoke.json"))
    _cli("compare", tiny, out("BENCH_smoke.json"), "--json")
    _cli("history", tiny, out("BENCH_smoke.json"))
    _cli("history", "--json", "--metric", "*", tiny, out("BENCH_smoke.json"))
    _cli("history", "--metric", "*", tiny, out("BENCH_smoke.json"))
    _cli("history")  # no paths: the BENCH_*.json in the working directory
    _cli("slo", out("fig07.metrics.json"))
    _cli("slo", out("fig07.metrics.json"), "--json", "--window", "0", "1")
    _cli("slo", out("chaos.metrics.json"), "--policy", "chaos")
    # The paper-shape benches the CI ``benches`` job runs.
    _benches()
    # Scripts: the examples, the kernel throughput snapshot and each perf
    # workload in this process (a suite run would use subprocesses, and
    # ``--trace 1`` would replace this hook with cProfile).
    for example in sorted((ROOT / "examples").glob("*.py")):
        _script(example)
    _script(ROOT / "benchmarks" / "bench_kernel_throughput.py",
            "--scale", "tiny", "--rounds", "1", "--out", out("kernel.json"))
    for workload in ("mdtest_pacon", "mdtest_pacon_observed",
                     "deepstat_pacon", "mdtest_beegfs", "mdtest_indexfs"):
        _script(ROOT / "benchmarks" / "perf" / "run.py", "--workload",
                workload, "--quick", "--trace", "0")


# -- matching -----------------------------------------------------------------

Definition = Tuple[str, int, int, str, ast.AST, bool]
# qualname, first line, last, name, the def node, whether a class owns it


def definitions(path: Path) -> List[Definition]:
    """Every ``def`` in one file, with its dotted owner chain; the second
    ``def`` of one name in one scope (a property setter, a branch) gets
    ``#2``, the third ``#3``."""
    rel = path.relative_to(SRC).as_posix()
    out: List[Definition] = []
    taken: Dict[str, int] = {}

    def visit(body, prefix: str, in_class: bool) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] +
                            [d.lineno for d in node.decorator_list])
                qual = f"{prefix}{node.name}"
                taken[qual] = taken.get(qual, 0) + 1
                if taken[qual] > 1:
                    qual += f"#{taken[qual]}"
                out.append((f"{rel}::{qual}", first, node.end_lineno,
                            node.name, node, in_class))
                visit(node.body, qual + ".", False)
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.", True)
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, []) or [], prefix, in_class)

    visit(ast.parse(path.read_text()).body, "", False)
    return out


def census() -> Tuple[Dict[str, Tuple[int, int]], Set[str]]:
    """``(every definition -> (first, last line), the reached ones)``."""
    reached_at: Set[Tuple[str, int, str]] = set()
    for code in _seen.values():
        filename = os.path.realpath(code.co_filename)
        reached_at.add((filename, code.co_firstlineno, code.co_name))
    defs: Dict[str, Tuple[int, int]] = {}
    reached: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        filename = os.path.realpath(path)
        for qual, first, last, name, _node, _method in definitions(path):
            defs[qual] = (first, last)
            if (filename, first, name) in reached_at:
                reached.add(qual)
    return defs, reached


#: Where a call that passes a parameter counts, read by ``ast``.
CALLERS = ("src/repro", "tests", "benchmarks", "examples")

CallSite = Tuple[str, int, bool, Set[str], bool]
# file, positional arguments, a ``*`` argument, keywords, a ``**`` argument


def add_call_sites(tree: ast.AST, rel: str,
                   sites: Dict[str, List[CallSite]]) -> None:
    """Add every call in ``tree`` (the file ``rel``) to ``sites``, by
    callee name: the ``f`` of ``f(...)`` or ``x.f(...)``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name is None:
            continue
        star = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords if k.arg}
        sites.setdefault(name, []).append((
            rel, len(node.args) - star, star, keywords,
            any(k.arg is None for k in node.keywords)))


def call_sites() -> Dict[str, List[CallSite]]:
    """Every call in :data:`CALLERS`, by callee name."""
    sites: Dict[str, List[CallSite]] = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            add_call_sites(ast.parse(path.read_text()),
                           path.relative_to(ROOT).as_posix(), sites)
    return sites


def _skip(node: ast.AST, method: bool) -> int:
    """1 when a caller does not write the def's first parameter (the
    ``self`` or ``cls`` of a method), else 0."""
    decorators = {getattr(d, "id", None) for d in node.decorator_list}
    return 1 if method and "staticmethod" not in decorators else 0


def defaulted(node: ast.AST, method: bool) -> List[Tuple[str, Optional[int]]]:
    """A def's defaulted parameters, each with its position among the
    arguments a caller writes (None for keyword-only)."""
    args = node.args
    positional = args.posonlyargs + args.args
    skip = _skip(node, method)
    out = [(a.arg, i - skip) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def binds(node: ast.AST, method: bool, site: CallSite) -> bool:
    """Whether a call site's positional count and keywords can bind the
    def's signature: no more positional arguments than it takes, no
    keyword it lacks or that a positional argument already filled, and
    every parameter without a default filled (a ``*`` or ``**`` argument
    at the site may fill any).  A ``*args`` def takes any count, a
    ``**kwargs`` def any keyword."""
    _rel, n, star, keywords, double = site
    args = node.args
    skip = _skip(node, method)
    positional = [a.arg for a in args.posonlyargs + args.args][skip:]
    if n > len(positional) and args.vararg is None:
        return False
    filled = set(positional[:n])
    named = ({a.arg for a in args.args + args.kwonlyargs}
             - {a.arg for a in (args.posonlyargs + args.args)[:skip]})
    for keyword in keywords:
        if keyword in filled and keyword in named:
            return False
        if keyword not in named and args.kwarg is None:
            return False
    if star or double:
        return True
    required = positional[:len(positional) - len(args.defaults)]
    required += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                 if d is None]
    return all(p in filled or p in keywords for p in required)


def passers(node: ast.AST, method: bool, param: str, index: Optional[int],
            sites: List[CallSite]) -> List[str]:
    """The sorted files whose calls among ``sites`` bind the def and pass
    ``param`` (at ``index`` among the written arguments, None for
    keyword-only) by keyword or position."""
    return sorted({
        site[0] for site in sites
        if binds(node, method, site) and (
            param in site[3] or site[4] or (
                index is not None and (index < site[1] or site[2])))})


def param_census() -> Dict[str, object]:
    """Every defaulted parameter of a ``def`` in ``src/repro``, as
    ``"<function>(<parameter>)"`` -> ``"run"`` when a census run passed
    it a value ``!=`` its default, else the sorted files whose calls pass
    it by keyword or position (matched on callee name; ``__init__`` by its
    class's name), empty when nothing does."""
    by_run: Dict[Tuple[str, int, str], Set[str]] = {}
    for key, names in _set_by_run.items():
        code = _seen[key]
        by_run[(os.path.realpath(code.co_filename), code.co_firstlineno,
                code.co_name)] = names
    sites = call_sites()
    out: Dict[str, object] = {}
    for path in sorted(SRC.rglob("*.py")):
        filename = os.path.realpath(path)
        for qual, first, _last, name, node, method in definitions(path):
            params = defaulted(node, method)
            if not params:
                continue
            ran = by_run.get((filename, first, name), set())
            owners = qual.split("::")[1].split(".")
            callee = owners[-2] if method and name == "__init__" else name
            for param, index in params:
                if param in ran:
                    out[f"{qual}({param})"] = "run"
                    continue
                out[f"{qual}({param})"] = passers(
                    node, method, param, index, sites.get(callee, []))
    return out


def tests_only(who: object) -> bool:
    """Whether only calls under ``tests/`` pass a parameter."""
    return (who != "run" and bool(who)
            and all(rel.startswith("tests/") for rel in who))


def param_report(params: Dict[str, object]) -> None:
    """``--params``: every parameter no census run sets, and who does."""
    for key, who in sorted(params.items()):
        if who == "run":
            continue
        if not who:
            print(f"  nobody      {key}: {PARAM_ALLOWLIST.get(key, '')}")
        elif tests_only(who):
            print(f"  tests only  {key}: {PARAM_ALLOWLIST.get(key, '')}")
        else:
            print(f"  not run     {key}: " + ", ".join(
                rel for rel in who if not rel.startswith("tests/")))


def executable_lines(path: Path) -> Set[int]:
    """The lines of ``path`` that carry bytecode, in every code object."""
    lines: Set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def line_report(paths: List[Path]) -> None:
    """Print, per file, the executable lines no run executed."""
    ran: Dict[str, Set[int]] = {}
    for name, line in _ran:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    for path in paths:
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(os.path.realpath(path), set()))
        print(f"{path.relative_to(ROOT)}: {len(lines) - len(missed)} of"
              f" {len(lines)} executable lines ran; {len(missed)} did not")
        text = path.read_text().splitlines()
        previous = None
        for line in missed:
            if previous is not None and line != previous + 1:
                print()
            print(f"  {line:5d}  {text[line - 1]}")
            previous = line


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--lines", nargs="+", metavar="FILE",
                        help="report the unexecuted lines of these files")
    parser.add_argument("--params", action="store_true",
                        help="list every parameter no run sets, and who"
                        " does (exits 0)")
    args = parser.parse_args(argv)
    paths = [Path(name).resolve() for name in args.lines or ()]
    _traced.update(os.path.realpath(path) for path in paths)
    started = time.perf_counter()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            run_workloads(Path(tmp))
        finally:
            os.chdir(cwd)
    if paths:
        line_report(paths)
        print(f"line census: {time.perf_counter() - started:.0f} s")
        return 0
    defs, reached = census()
    unreached = sorted(set(defs) - reached)
    lines = sum(defs[q][1] - defs[q][0] + 1 for q in unreached)
    print(f"reach census: {len(defs) - len(unreached)} of {len(defs)}"
          f" functions reached; {len(unreached)} unreached"
          f" ({lines} lines), {len(ALLOWLIST)} allowlisted;"
          f" {time.perf_counter() - started:.0f} s")
    reasons: Dict[str, int] = {}
    for qual in unreached:
        if qual in ALLOWLIST:
            reasons[ALLOWLIST[qual]] = reasons.get(ALLOWLIST[qual], 0) + 1
    for reason, count in sorted(reasons.items(), key=lambda kv: -kv[1]):
        print(f"  {count:>4}  {reason}")
    unlisted = [q for q in unreached if q not in ALLOWLIST]
    stale = sorted(q for q in ALLOWLIST if q not in defs or q in reached)
    for qual in unlisted:
        first, last = defs[qual]
        print(f"UNREACHED {qual} (lines {first}-{last}): reach it from a"
              " workload, delete it, or give it an ALLOWLIST row")
    for qual in stale:
        why = "is reached now" if qual in defs else "no longer exists"
        print(f"STALE {qual} {why}: drop its ALLOWLIST row")
    params = param_census()
    unset = sorted(k for k, who in params.items() if not who)
    by_run = sum(who == "run" for who in params.values())
    by_tests_only = sum(tests_only(who) for who in params.values())
    print(f"parameter census: {len(params)} defaulted parameters; {by_run}"
          f" set by a run, {len(params) - by_run - len(unset)} only by a"
          f" call no run makes ({by_tests_only} of them in tests only),"
          f" {len(unset)} unset, {len(PARAM_ALLOWLIST)} allowlisted")
    if args.params:
        param_report(params)
        return 0
    unlisted_params = [k for k in unset if k not in PARAM_ALLOWLIST]
    by_tests = sorted(k for k, who in params.items()
                      if tests_only(who) and k not in PARAM_ALLOWLIST)
    stale_params = sorted(
        k for k in PARAM_ALLOWLIST
        if k not in params or not (params[k] == [] or tests_only(params[k])))
    for key in unlisted_params:
        print(f"UNSET {key}: nothing passes it; delete it and write its"
              " default where it is used, or give it a PARAM_ALLOWLIST row")
    for key in by_tests:
        print(f"TESTONLY {key}: only tests pass it; make it a module"
              " constant, give it a caller outside tests/, delete it, or"
              " give it a PARAM_ALLOWLIST row")
    for key in stale_params:
        why = "is set now" if key in params else "no longer exists"
        print(f"STALE {key} {why}: drop its PARAM_ALLOWLIST row")
    failed = (unlisted or stale or unlisted_params or by_tests
              or stale_params)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
