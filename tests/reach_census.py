"""Reach census: every function under ``src/repro`` runs in a workload, or
is named below with the reason it may stay unreached.

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

Exit status 1 when a function no run reaches has no row in
:data:`ALLOWLIST`, or when a row is stale: its function is reached now,
or no longer exists.  The allowlist may only shrink.  The file is not
named ``test_*.py``, so pytest does not collect it (it takes about a
minute).

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
    "core/autoscale.py::Autoscaler._default_factory": TEST_API,
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
    "core/deploy.py::PaconDeployment.grow_region": TEST_API,
    "core/deploy.py::PaconDeployment.retire_node": TEST_API,
    "core/deploy.py::PaconFS.__enter__": TEST_API,
    "core/deploy.py::PaconFS.__exit__": TEST_API,
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
    "dfs/namespace.py::basename": TEST_API,
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
    "obs/timeline.py::Timeline.clear": TEST_API,
    "sim/core.py::Environment.step": TEST_API,
    "sim/core.py::Environment.timeout": PERF,
    "sim/core.py::Event.__repr__": FAULT,
    "sim/core.py::Event.exception": OBSERVER,
    "sim/core.py::Event.fail": TEST_API,
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
    "sim/trace.py::Tracer.attribution": OBSERVER,
    "sim/trace.py::Tracer.clear": TEST_API,
    "sim/trace.py::Tracer.sampled": TRACED_COALESCE,
    "sim/trace.py::Tracer.span_tree": OBSERVER,
    "sim/trace.py::Tracer.spans": OBSERVER,
    "workloads/mdtest.py::leaf_dirs": TEST_API,
}

# -- recording ----------------------------------------------------------------

_seen: Dict[int, object] = {}


def _hook(frame, event, _arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code  # held, so the id is never reused


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
         "--log-out", out("l.txt"), "--kind", "op.end", "--actor", "c0")
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

Definition = Tuple[str, int, int, str]  # qualname, first line, last, name


def definitions(path: Path) -> List[Definition]:
    """Every ``def`` in one file, with its dotted owner chain; the second
    ``def`` of one name in one scope (a property setter, a branch) gets
    ``#2``, the third ``#3``."""
    rel = path.relative_to(SRC).as_posix()
    out: List[Definition] = []
    taken: Dict[str, int] = {}

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] +
                            [d.lineno for d in node.decorator_list])
                qual = f"{prefix}{node.name}"
                taken[qual] = taken.get(qual, 0) + 1
                if taken[qual] > 1:
                    qual += f"#{taken[qual]}"
                out.append((f"{rel}::{qual}", first, node.end_lineno,
                            node.name))
                visit(node.body, qual + ".")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, []) or [], prefix)

    visit(ast.parse(path.read_text()).body, "")
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
        for qual, first, last, name in definitions(path):
            defs[qual] = (first, last)
            if (filename, first, name) in reached_at:
                reached.add(qual)
    return defs, reached


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
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
