"""Command-line interface: run workloads and experiments without code.

Installed as ``pacon-bench`` (see pyproject) or usable as
``python -m repro.cli``::

    pacon-bench mdtest --system pacon --nodes 4 --clients-per-node 8 \
        --items 100
    pacon-bench madbench --system beegfs --file-size 4194304
    pacon-bench figure fig07 --scale paper --metrics-out fig07.metrics.json
    pacon-bench figure chaos --scale smoke --bench-out chaos.json
    pacon-bench all --scale ci --out report.md --bench-label nightly
    pacon-bench compare BENCH_a.json BENCH_b.json --json
    pacon-bench history --metric 'fig07.*'
    pacon-bench stats --nodes 2 --items 25 --out metrics.json
    pacon-bench incidents --json --out incidents.json
    pacon-bench trace --nodes 2 --items 5 --limit 100
    pacon-bench trace --since 0.001 --until 0.002 --chrome trace.json
    pacon-bench profile --nodes 2 --items 25 --top 10
    pacon-bench elastic --scale smoke --metrics-out elastic.metrics.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.bench import runner
from repro.bench.baseline import (compare_files, history_rows,
                                  load_history, render_comparison,
                                  render_history)
from repro.bench.registry import EXPERIMENTS
from repro.bench.report import NotObservable, write_markdown
from repro.bench.snapshot import SnapshotError, collect_snapshot_paths
from repro.bench.systems import make_testbed
from repro.chaos.scenarios import SCENARIOS, run_scenario
from repro.obs.chrome import write_chrome_trace
from repro.obs.hub import SAMPLE_INTERVAL, MetricsHub
from repro.obs.incidents import format_report
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

    mdtest = sub.add_parser("mdtest", help="run the mdtest-like workload")
    mdtest.add_argument("--system", choices=("beegfs", "indexfs", "pacon"),
                        default="pacon")
    mdtest.add_argument("--nodes", type=int, default=4)
    mdtest.add_argument("--clients-per-node", type=int, default=8)
    mdtest.add_argument("--items", type=int, default=50)
    mdtest.add_argument("--phases", default="mkdir,create,stat",
                        help="comma-separated: mkdir,create,stat,rm")
    mdtest.add_argument("--seed", type=int, default=DEFAULT_SEED)

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
        p.add_argument("--metrics-out", default=None,
                       help="write a MetricsHub JSON artifact here"
                            " (experiments that support observability)")
        p.add_argument("--bench-out", default=None, metavar="SNAPSHOT",
                       help="write a pacon.bench/v1 snapshot here")
        p.add_argument("--bench-label", default=None,
                       help="write a snapshot named BENCH_<label>.json"
                            " in the current directory")

    figure = sub.add_parser("figure", help="run one experiment")
    figure.add_argument("name", choices=tuple(EXPERIMENTS))
    _experiment_args(figure)
    figure.add_argument("--trace-out", default=None, metavar="OUT_JSON",
                        help="write a Chrome trace-event JSON artifact"
                             " here (experiments that support"
                             " observability)")

    everything = sub.add_parser("all", help="regenerate every experiment")
    _experiment_args(everything)
    everything.add_argument("--out", default=None,
                            help="write a markdown report here")

    compare = sub.add_parser(
        "compare", help="compare the simulated metrics of two benchmark"
                        " snapshots and flag regressions")
    compare.add_argument("baseline", help="baseline BENCH_*.json")
    compare.add_argument("candidate", help="candidate BENCH_*.json")
    compare.add_argument("--tolerance", action="append", default=[],
                         metavar="METRIC=REL",
                         help="per-metric relative tolerance for simulated"
                              " metrics (glob ok; e.g."
                              " 'fig07.derived.*=0.05'); default exact")
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

    def _observed_workload_args(p) -> None:
        p.add_argument("--nodes", type=int, default=2)
        p.add_argument("--clients-per-node", type=int, default=4)
        p.add_argument("--items", type=int, default=20)
        p.add_argument("--phases", default="mkdir,create,stat",
                       help="comma-separated: mkdir,create,stat,rm")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--sample-interval", type=float,
                       default=SAMPLE_INTERVAL,
                       help="gauge sampler period in simulated seconds"
                            " (0 disables sampling)")
        p.add_argument("--out", default=None, help="write output here"
                                                   " instead of stdout")

    stats = sub.add_parser(
        "stats", help="run an observed Pacon mdtest workload and export"
                      " the MetricsHub JSON document")
    _observed_workload_args(stats)
    stats.add_argument("--compact", action="store_true",
                       help="single-line JSON (default is indented)")

    trace = sub.add_parser(
        "trace", help="run a traced Pacon mdtest workload and render the"
                      " span/commit event log")
    _observed_workload_args(trace)
    trace.add_argument("--limit", type=int, default=200,
                       help="max events to render")
    trace.add_argument("--kind", default=None,
                       help="filter events by kind (e.g. op.end, commit)")
    trace.add_argument("--actor", default=None,
                       help="filter events by actor")
    trace.add_argument("--since", type=float, default=0.0,
                       help="only events at/after this simulated time (s)")
    trace.add_argument("--until", type=float, default=float("inf"),
                       help="only events at/before this simulated time (s)")
    trace.add_argument("--chrome", default=None, metavar="OUT_JSON",
                       help="additionally write a Chrome trace-event JSON"
                            " file (open in Perfetto / chrome://tracing)")

    profile = sub.add_parser(
        "profile", help="run a traced Pacon mdtest workload and print"
                        " latency attribution + resource profile tables")
    _observed_workload_args(profile)
    profile.add_argument("--top", type=int, default=10,
                         help="how many slowest ops to list")

    slo = sub.add_parser(
        "slo", help="evaluate SLO objectives against an exported"
                    " pacon.metrics JSON document")
    slo.add_argument("metrics", help="metrics JSON (pacon-bench stats /"
                                     " figure --metrics-out)")
    slo.add_argument("--policy", default="default",
                     help="named policy (default, chaos)")
    slo.add_argument("--window", nargs=2, type=float, default=None,
                     metavar=("T0", "T1"),
                     help="evaluate only series-based objectives inside"
                          " this simulated-time window")
    slo.add_argument("--json", action="store_true", dest="as_json",
                     help="machine-readable result instead of a table")

    def _scenario_args(p) -> None:
        p.add_argument("scenario", nargs="?", default="all",
                       choices=("all",) + SCENARIOS)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--items", type=int, default=24,
                       help="files created per client")
        p.add_argument("--nodes", type=int, default=3)
        p.add_argument("--clients-per-node", type=int, default=2)

    chaos = sub.add_parser(
        "chaos", help="inject faults into a live Pacon run and check the"
                      " post-recovery convergence invariants")
    _scenario_args(chaos)
    chaos.add_argument("--metrics-out", default=None,
                       help="write the faulty run's MetricsHub JSON here"
                            " (includes the chaos.* counters)")
    chaos.add_argument("--json", action="store_true", dest="as_json",
                       help="machine-readable scenario summaries")

    incidents = sub.add_parser(
        "incidents", help="run chaos scenarios through the incident"
                          " flight recorder: detect SLO-burn incidents,"
                          " blame control-plane causes, and gate on"
                          " every fault being the top suspect")
    _scenario_args(incidents)
    incidents.add_argument("--json", action="store_true", dest="as_json",
                           help="machine-readable incident + attribution"
                                " payload instead of a report")
    incidents.add_argument("--out", default=None,
                           help="also write the output here (CI artifact)")

    elastic = sub.add_parser(
        "elastic", help="flash-crowd elasticity bench: autoscaled vs."
                        " statically provisioned runs of one workload")
    elastic.add_argument("--scale", choices=("smoke", "ci", "paper"),
                         default="smoke")
    elastic.add_argument("--seed", type=int, default=DEFAULT_SEED)
    elastic.add_argument("--metrics-out", default=None,
                         help="write the autoscaled run's MetricsHub JSON"
                              " here (includes the autoscale.* series)")
    elastic.add_argument("--json", action="store_true", dest="as_json",
                         help="machine-readable rows + derived metrics")
    return parser


def _cmd_mdtest(args) -> int:
    bed = make_testbed(args.system, n_apps=1, nodes_per_app=args.nodes,
                       clients_per_node=args.clients_per_node,
                       seed=args.seed)
    phases = tuple(p.strip() for p in args.phases.split(",") if p.strip())
    config = MdtestConfig(workdir="/app", items_per_client=args.items,
                          phases=phases)
    result = run_mdtest(bed.env, bed.clients, config)
    print(f"system={args.system} clients={len(bed.clients)}"
          f" items/client={args.items}")
    for phase in phases:
        print(f"  {phase:>7}: {result.ops(phase):>12,.0f} ops/s"
              f"  ({result.phase_elapsed[phase] * 1e3:.2f} ms simulated)")
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


def _write_snapshot(args, results, wall_clock_s: float) -> None:
    """``--bench-out/--bench-label``: emit the run's BENCH_*.json."""
    if args.bench_out or args.bench_label:
        path = runner.write_snapshot_file(
            results, scale=args.scale, seed=args.seed, path=args.bench_out,
            label=args.bench_label, wall_clock_s=wall_clock_s)
        print(f"benchmark snapshot written to {path}")


def _cmd_figure(args) -> int:
    hub = None
    if args.metrics_out or args.trace_out:
        hub = MetricsHub(tracer=Tracer() if args.trace_out else None,
                         sample_interval=SAMPLE_INTERVAL)
    try:
        result = EXPERIMENTS[args.name](args.scale, seed=args.seed, hub=hub)
    except NotObservable:
        print(f"{args.name} does not support --metrics-out/--trace-out",
              file=sys.stderr)
        return 2
    print(result.render())
    # One export serves both artifacts, so the metrics JSON and the
    # trace's incident track are guaranteed to agree.
    doc = hub.export() if hub is not None else None
    if args.metrics_out:
        _write(args.metrics_out, hub.to_json(indent=2, doc=doc), "metrics ")
    if args.trace_out:
        count = write_chrome_trace(args.trace_out, hub.tracer, doc)
        print(f"chrome trace written to {args.trace_out}"
              f" ({count} events)")
    _write_snapshot(args, [result], result.host["wall_clock_s"])
    return 0


def _cmd_all(args) -> int:
    hub = (MetricsHub(sample_interval=SAMPLE_INTERVAL)
           if args.metrics_out else None)
    started = time.perf_counter()
    results = runner.run_all(args.scale, seed=args.seed, hub=hub)
    wall = time.perf_counter() - started
    if hub is not None:
        _write(args.metrics_out, hub.to_json(indent=2), "metrics ")
    if args.out:
        write_markdown(results, args.out)
        print(f"report written to {args.out}")
    _write_snapshot(args, results, wall)
    return 0


def _cmd_compare(args) -> int:
    tolerances = {}
    for spec in args.tolerance:
        name, sep, value = spec.partition("=")
        if not sep or not name:
            print(f"bad --tolerance {spec!r}: expected METRIC=REL",
                  file=sys.stderr)
            return 2
        try:
            tolerances[name] = float(value)
        except ValueError:
            print(f"bad --tolerance {spec!r}: {value!r} is not a number",
                  file=sys.stderr)
            return 2
    try:
        comparison = compare_files(args.baseline, args.candidate,
                                   tolerances=tolerances)
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


def _run_observed(args, with_tracer: bool):
    """Run one Pacon mdtest workload with observability installed.

    Returns the populated :class:`repro.obs.MetricsHub` (its tracer holds
    the event log when ``with_tracer``).
    """

    tracer = Tracer() if with_tracer else None
    interval = args.sample_interval if args.sample_interval > 0 else None
    hub = MetricsHub(tracer=tracer, sample_interval=interval)
    bed = make_testbed("pacon", n_apps=1, nodes_per_app=args.nodes,
                       clients_per_node=args.clients_per_node,
                       seed=args.seed, hub=hub)
    phases = tuple(p.strip() for p in args.phases.split(",") if p.strip())
    config = MdtestConfig(workdir="/app", items_per_client=args.items,
                          phases=phases)
    run_mdtest(bed.env, bed.clients, config)
    bed.quiesce()
    hub.stop_samplers()
    return hub


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        _write(out, text + "\n")
    else:
        print(text)


def _cmd_stats(args) -> int:
    hub = _run_observed(args, with_tracer=False)
    _emit(hub.to_json(indent=None if args.compact else 2), args.out)
    return 0


def _cmd_trace(args) -> int:
    hub = _run_observed(args, with_tracer=True)
    filters = {"since": args.since, "until": args.until}
    if args.kind:
        filters["kind"] = args.kind
    if args.actor:
        filters["actor"] = args.actor
    _emit(hub.tracer.render(limit=args.limit, **filters), args.out)
    if args.chrome:
        count = write_chrome_trace(args.chrome, hub.tracer, hub.export(),
                                   since=args.since, until=args.until)
        print(f"chrome trace written to {args.chrome} ({count} events)")
    return 0


def _cmd_profile(args) -> int:
    hub = _run_observed(args, with_tracer=True)
    _emit(render_report(hub.tracer, hub.export(), top=args.top), args.out)
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


def _cmd_chaos(args) -> int:
    names = SCENARIOS if args.scenario == "all" else (args.scenario,)
    results = []
    hub = None
    for name in names:
        # Fresh hub per scenario: each scenario is its own simulated
        # world starting at t=0, so sharing one hub would interleave
        # their gauge series and corrupt the windowed SLO verdicts.
        # The metrics artifact carries the last scenario's run.
        hub = MetricsHub(sample_interval=SAMPLE_INTERVAL) \
            if args.metrics_out else None
        results.append(run_scenario(
            name, seed=args.seed, hub=hub, items=args.items,
            n_nodes=args.nodes, clients_per_node=args.clients_per_node))
    if args.as_json:
        print(json.dumps([r.summary() for r in results], indent=2,
                         sort_keys=True))
    else:
        for r in results:
            status = "ok" if r.ok else "FAILED"
            print(f"== {r.name} [{status}] seed={r.seed}"
                  f" faults={len(r.fault_records)} lost={r.lost_ops}"
                  f" replays={r.replays} dropped={r.dropped}")
            print(r.report)
            for rec in r.fault_records:
                print(f"  fault {rec.kind}[{rec.target}]"
                      f" t={rec.injected_at:.6f}->{rec.recovered_at:.6f}"
                      f" lost={rec.lost_ops} {rec.detail}")
            for label, doc in (("during-fault", r.slo_during),
                               ("post-recovery", r.slo_post)):
                if doc is None:
                    continue
                for obj in doc["objectives"]:
                    mark = "ok" if obj["ok"] else "VIOLATED"
                    print(f"  slo {label} [{mark}] {obj['name']}:"
                          f" {obj['measured']:.6g} <="
                          f" {obj['target']:.6g} ({obj['metric']})")
    if hub is not None:
        _write(args.metrics_out, hub.to_json(indent=2), "metrics ")
    return 0 if all(r.ok for r in results) else 1


def _cmd_incidents(args) -> int:
    names = SCENARIOS if args.scenario == "all" else (args.scenario,)
    chunks: List[str] = []
    payload = []
    all_attributed = True
    for name in names:
        result = run_scenario(
            name, seed=args.seed, items=args.items, n_nodes=args.nodes,
            clients_per_node=args.clients_per_node)
        doc = result.metrics_doc
        all_attributed &= result.faults_attributed
        if args.as_json:
            payload.append({
                "scenario": name,
                "seed": result.seed,
                "attributed": result.faults_attributed,
                "incidents": doc["incidents"],
                "attribution": result.attribution,
            })
        else:
            status = "ok" if result.faults_attributed else "UNATTRIBUTED"
            chunks.append(f"== {name} [{status}] seed={result.seed}")
            chunks.append(format_report(doc))
    text = json.dumps(payload, indent=2, sort_keys=True) if args.as_json \
        else "\n".join(chunks)
    print(text)
    if args.out:
        _write(args.out, text + "\n")
    return 0 if all_attributed else 1


def _cmd_elastic(args) -> int:
    experiment = EXPERIMENTS["elastic"]
    hub = None
    if args.metrics_out:
        hub = MetricsHub(sample_interval=experiment.scales[args.scale][
            "sample_interval"])
    result = experiment(args.scale, seed=args.seed, hub=hub)
    if args.as_json:
        print(json.dumps(result.to_snapshot(), indent=2, sort_keys=True))
    else:
        print(result.render())
    if hub is not None:
        _write(args.metrics_out, hub.to_json(indent=2), "metrics ")
    # The headline claim gates the exit code: once adapted, the
    # autoscaled run must beat static_min on steady-state tail latency
    # while costing less than static_peak provisioning.
    ok = (result.derived["steady_p99_speedup_vs_static_min"] > 1.0
          and result.derived["cost_ratio_vs_static_peak"] < 1.0)
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"mdtest": _cmd_mdtest, "madbench": _cmd_madbench,
                "figure": _cmd_figure, "all": _cmd_all,
                "compare": _cmd_compare, "history": _cmd_history,
                "stats": _cmd_stats, "trace": _cmd_trace,
                "profile": _cmd_profile, "chaos": _cmd_chaos,
                "slo": _cmd_slo, "elastic": _cmd_elastic,
                "incidents": _cmd_incidents}
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
