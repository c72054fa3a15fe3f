"""Command-line interface: run workloads and experiments without code.

Installed as ``pacon-bench`` (see pyproject) or usable as
``python -m repro.cli``::

    pacon-bench mdtest --system pacon --nodes 4 --clients-per-node 8 \
        --items 100
    pacon-bench mdtest --nodes 2 --items 25 --metrics-out metrics.json \
        --profile-out profile.txt --top 10
    pacon-bench mdtest --nodes 2 --items 5 --log-out log.txt --limit 100
    pacon-bench mdtest --since 0.001 --until 0.002 --trace-out trace.json
    pacon-bench madbench --system beegfs --file-size 4194304
    pacon-bench figure fig07 --scale paper --metrics-out fig07.metrics.json
    pacon-bench figure chaos --scale smoke --bench-out chaos.json
    pacon-bench figure elastic --scale smoke --metrics-out elastic.json
    pacon-bench all --scale ci --out report.md --bench-label nightly
    pacon-bench compare BENCH_a.json BENCH_b.json --json
    pacon-bench history --metric 'fig07.*'
    pacon-bench slo metrics.json --policy chaos

Every simulation has one verb, and every verdict comes from one run:
``mdtest`` writes each view of its observed run (metrics, Chrome trace,
event log, profile) from that run, and ``figure``/``all`` exit 1 when a
row's own check failed (:meth:`ExperimentResult.fail`), after writing
every requested artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.bench import runner
from repro.bench.registry import EXPERIMENTS
from repro.bench.report import NotObservable, write_markdown
from repro.bench.snapshot import (SnapshotError, build_snapshot,
                                  collect_snapshot_paths, compare_snapshots,
                                  history_rows, load_history, load_snapshot,
                                  render_comparison, render_history,
                                  write_snapshot)
from repro.bench.systems import SYSTEMS, make_testbed
from repro.obs.chrome import write_chrome_trace
from repro.obs.hub import SAMPLE_INTERVAL, MetricsHub
from repro.obs.profile import render_report
from repro.obs.slo import evaluate_file, format_result, get_policy
from repro.sim.rng import DEFAULT_SEED
from repro.sim.trace import Tracer
from repro.workloads.madbench import MadbenchConfig, run_madbench
from repro.workloads.mdtest import MdtestConfig, run_mdtest

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pacon-bench",
        description="Pacon reproduction: workloads and paper experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def _artifact_args(p, trace: bool = True) -> None:
        p.add_argument("--metrics-out", default=None,
                       help="write a MetricsHub JSON artifact here")
        if trace:
            p.add_argument("--trace-out", default=None, metavar="OUT_JSON",
                           help="write a Chrome trace-event JSON artifact"
                                " here (open in Perfetto / chrome://tracing)")

    mdtest = sub.add_parser(
        "mdtest", help="run the mdtest-like workload; any --*-out flag"
                       " observes the run and writes that view of it")
    mdtest.add_argument("--system", choices=SYSTEMS, default="pacon")
    mdtest.add_argument("--nodes", type=int, default=4)
    mdtest.add_argument("--clients-per-node", type=int, default=8)
    mdtest.add_argument("--items", type=int, default=50)
    mdtest.add_argument("--phases", default="mkdir,create,stat",
                        help="comma-separated: mkdir,create,stat,rm")
    mdtest.add_argument("--seed", type=int, default=DEFAULT_SEED)
    _artifact_args(mdtest)
    mdtest.add_argument("--log-out", default=None,
                        help="write the span/commit event log here")
    mdtest.add_argument("--limit", type=int, default=200,
                        help="max events in the log")
    mdtest.add_argument("--kind", default=None,
                        help="log only this event kind (e.g. op.end)")
    mdtest.add_argument("--actor", default=None,
                        help="log only this actor's events")
    mdtest.add_argument("--since", type=float, default=0.0,
                        help="log and trace only events at/after this"
                             " simulated time (s)")
    mdtest.add_argument("--until", type=float, default=float("inf"),
                        help="log and trace only events at/before this"
                             " simulated time (s)")
    mdtest.add_argument("--profile-out", default=None,
                        help="write the latency attribution + resource"
                             " profile tables here")
    mdtest.add_argument("--top", type=int, default=10,
                        help="how many slowest ops the profile lists")

    madbench = sub.add_parser("madbench",
                              help="run the MADbench2-like workload")
    madbench.add_argument("--system", choices=("beegfs", "pacon"),
                          default="pacon")
    madbench.add_argument("--nodes", type=int, default=4)
    madbench.add_argument("--procs-per-node", type=int, default=4)
    madbench.add_argument("--file-size", type=int, default=1 << 20)
    madbench.add_argument("--iterations", type=int, default=3)

    def _experiment_args(p) -> None:
        p.add_argument("--scale", choices=("smoke", "ci", "paper"),
                       default="ci")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="simulation seed")
        p.add_argument("--bench-out", default=None, metavar="SNAPSHOT",
                       help="write a pacon.bench/v1 snapshot here")
        p.add_argument("--bench-label", default=None,
                       help="write a snapshot named BENCH_<label>.json"
                            " in the current directory")

    figure = sub.add_parser(
        "figure", help="run one experiment (exit 1 if its check fails)")
    figure.add_argument("name", choices=tuple(EXPERIMENTS))
    _experiment_args(figure)
    _artifact_args(figure)

    everything = sub.add_parser("all", help="regenerate every experiment")
    _experiment_args(everything)
    _artifact_args(everything, trace=False)
    everything.add_argument("--out", default=None,
                            help="write a markdown report here")

    compare = sub.add_parser(
        "compare", help="compare the simulated metrics of two benchmark"
                        " snapshots and flag regressions")
    compare.add_argument("baseline", help="baseline BENCH_*.json")
    compare.add_argument("candidate", help="candidate BENCH_*.json")
    compare.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable output instead of a table")

    history = sub.add_parser(
        "history", help="fold BENCH_*.json snapshots into per-metric"
                        " trajectories")
    history.add_argument("snapshots", nargs="*",
                         help="snapshot files (default: BENCH_*.json in"
                              " the current directory)")
    history.add_argument("--metric", default=None,
                         help="only metrics matching this name/glob")
    history.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable output instead of a table")

    slo = sub.add_parser(
        "slo", help="evaluate SLO objectives against an exported"
                    " pacon.metrics JSON document")
    slo.add_argument("metrics", help="metrics JSON (mdtest / figure"
                                     " --metrics-out)")
    slo.add_argument("--policy", default="default",
                     help="named policy (default, chaos)")
    slo.add_argument("--window", nargs=2, type=float, default=None,
                     metavar=("T0", "T1"),
                     help="evaluate only series-based objectives inside"
                          " this simulated-time window")
    slo.add_argument("--json", action="store_true", dest="as_json",
                     help="machine-readable result instead of a table")
    return parser


def _observed(args) -> bool:
    """Did any ``mdtest`` output flag ask for a view of the run?"""
    return any((args.metrics_out, args.trace_out, args.log_out,
                args.profile_out))


def _run_mdtest(args):
    """One mdtest run, observed by a traced hub when :func:`_observed`.

    Every view is read off this one run, so a run that writes all four
    writes what four single-view runs would.  Returns ``(result, hub)``;
    ``hub`` is None for an unobserved run.
    """
    hub = None
    if _observed(args):
        hub = MetricsHub(tracer=Tracer(), sample_interval=SAMPLE_INTERVAL)
    bed = make_testbed(args.system, n_apps=1, nodes_per_app=args.nodes,
                       clients_per_node=args.clients_per_node,
                       seed=args.seed, hub=hub)
    phases = tuple(p.strip() for p in args.phases.split(",") if p.strip())
    config = MdtestConfig(workdir="/app", items_per_client=args.items,
                          phases=phases)
    result = run_mdtest(bed.env, bed.clients, config)
    if hub is not None:
        bed.quiesce()
        hub.stop_samplers()
    return result, hub


def _cmd_mdtest(args) -> int:
    if _observed(args) and args.system != "pacon":
        print(f"--system {args.system} is not observable; the --*-out"
              " flags need pacon", file=sys.stderr)
        return 2
    result, hub = _run_mdtest(args)
    print(f"system={args.system}"
          f" clients={args.nodes * args.clients_per_node}"
          f" items/client={args.items}")
    for phase, elapsed in result.phase_elapsed.items():
        print(f"  {phase:>7}: {result.ops(phase):>12,.0f} ops/s"
              f"  ({elapsed * 1e3:.2f} ms simulated)")
    if hub is None:
        return 0
    doc = _write_artifacts(hub, args.metrics_out, args.trace_out,
                           since=args.since, until=args.until)
    if args.log_out:
        filters = {"since": args.since, "until": args.until}
        if args.kind:
            filters["kind"] = args.kind
        if args.actor:
            filters["actor"] = args.actor
        _write(args.log_out,
               hub.tracer.render(limit=args.limit, **filters) + "\n",
               "event log ")
    if args.profile_out:
        _write(args.profile_out,
               render_report(hub.tracer, doc, top=args.top) + "\n",
               "profile ")
    return 0


def _cmd_madbench(args) -> int:
    bed = make_testbed(args.system, n_apps=1, nodes_per_app=args.nodes,
                       clients_per_node=args.procs_per_node,
                       workdir_base="/madbench")
    config = MadbenchConfig(workdir="/madbench", file_size=args.file_size,
                            iterations=args.iterations)
    result = run_madbench(bed.env, bed.clients, config)
    bed.quiesce()
    shares = result.shares()
    print(f"system={args.system} procs={len(bed.clients)}"
          f" file={args.file_size} bytes x{args.iterations} rounds")
    print(f"  total: {result.total_time * 1e3:.2f} ms simulated")
    for part in ("init", "write", "read", "other"):
        print(f"  {part:>6}: {shares[part] * 100:5.1f}%")
    return 0


def _write(path: str, text: str, what: str = "") -> None:
    with open(path, "w") as fh:
        fh.write(text)
    print(f"{what}written to {path}")


def _write_artifacts(hub, metrics_out: Optional[str],
                     trace_out: Optional[str] = None, **window):
    """``--metrics-out``/``--trace-out`` of one observed run; returns the
    export.  One export serves both artifacts, so the metrics JSON and the
    trace's incident track are guaranteed to agree."""
    doc = hub.export()
    if metrics_out:
        _write(metrics_out, hub.to_json(indent=2, doc=doc), "metrics ")
    if trace_out:
        count = write_chrome_trace(trace_out, hub.tracer, doc, **window)
        print(f"chrome trace written to {trace_out} ({count} events)")
    return doc


def _finish(args, results, wall_clock_s: float) -> int:
    """Emit the run's BENCH_*.json (``--bench-out/--bench-label``), then
    turn any row's failed check into exit 1."""
    if args.bench_out or args.bench_label:
        path = write_snapshot(build_snapshot(
            results, scale=args.scale, seed=args.seed,
            label=args.bench_label, wall_clock_s=wall_clock_s),
            args.bench_out)
        print(f"benchmark snapshot written to {path}")
    failures = [f"{r.experiment}: {reason}" for r in results
                for reason in r.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_figure(args) -> int:
    experiment = EXPERIMENTS[args.name]
    hub = None
    if args.metrics_out or args.trace_out:
        # The gauge sampler is a process of the simulated world: its
        # last tick ends the run, and elastic integrates node-seconds up
        # to that instant.  A row that declares its cadence is observed
        # at it, or the observed run would not be the run it reports.
        hub = MetricsHub(
            tracer=Tracer() if args.trace_out else None,
            sample_interval=experiment.scales[args.scale].get(
                "sample_interval", SAMPLE_INTERVAL))
    try:
        result = experiment(args.scale, seed=args.seed, hub=hub)
    except NotObservable:
        print(f"{args.name} does not support --metrics-out/--trace-out",
              file=sys.stderr)
        return 2
    print(result.render())
    if hub is not None:
        _write_artifacts(hub, args.metrics_out, args.trace_out)
    return _finish(args, [result], result.host["wall_clock_s"])


def _cmd_all(args) -> int:
    hub = (MetricsHub(sample_interval=SAMPLE_INTERVAL)
           if args.metrics_out else None)
    started = time.perf_counter()
    results = runner.run_all(args.scale, seed=args.seed, hub=hub)
    wall = time.perf_counter() - started
    if hub is not None:
        _write_artifacts(hub, args.metrics_out)
    if args.out:
        write_markdown(results, args.out)
        print(f"report written to {args.out}")
    return _finish(args, results, wall)


def _cmd_compare(args) -> int:
    try:
        comparison = compare_snapshots(load_snapshot(args.baseline),
                                       load_snapshot(args.candidate))
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        print(json.dumps(comparison.to_doc(), indent=2, sort_keys=True))
    else:
        print(render_comparison(comparison))
    return 0 if comparison.ok else 1


def _cmd_history(args) -> int:
    paths = args.snapshots or collect_snapshot_paths(".")
    if not paths:
        print("no BENCH_*.json snapshots found (pass paths or run"
              " `pacon-bench all --bench-label LABEL` first)",
              file=sys.stderr)
        return 2
    try:
        docs = load_history(paths)
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        rows = history_rows(docs, metric_glob=args.metric)
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(render_history(docs, metric_glob=args.metric))
    return 0


def _cmd_slo(args) -> int:
    try:
        policy = get_policy(args.policy)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    window = tuple(args.window) if args.window else None
    result = evaluate_file(args.metrics, policy=policy, window=window)
    if args.as_json:
        print(json.dumps(result.to_doc(), indent=2, sort_keys=True))
    else:
        print(format_result(result))
    return 0 if result.passed else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"mdtest": _cmd_mdtest, "madbench": _cmd_madbench,
                "figure": _cmd_figure, "all": _cmd_all,
                "compare": _cmd_compare, "history": _cmd_history,
                "slo": _cmd_slo}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
