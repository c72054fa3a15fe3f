"""The repo's benchmark: one command, five workloads, two clocks.

    python3 benchmarks/perf/run.py                       # whole suite
    python3 benchmarks/perf/run.py --out results.json    # ... and keep it
    python3 benchmarks/perf/run.py --compare A.json B.json
    python3 benchmarks/perf/run.py --workload mdtest_pacon --seed 7 \\
        --seconds 10 --trace 0                           # one run

A single ``--workload`` run prints every metric by name and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics (from a
``cProfile`` pass plus public counters) with ``--trace 1``.  Without
``--workload`` every workload runs both ways, each in its own fresh
subprocess, one at a time.  Metric names, units, directions and bounds
are read from ``BENCHMARK.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_SEED = 3054
#: Repeats per run never drop below this, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: ``harness.calib_drift`` (interquartile range of the run's calibration
#: bursts over their median) beyond this marks a result ``"noisy": true``.
NOISY_DRIFT = 0.10
#: Host-clock per-layer metrics; every other one is simulated or a
#: count and repeats exactly at a fixed seed.
_HOST_SUFFIXES = (".self_s", ".self_share", "_per_s", ".export_s",
                  ".on_off_ratio")


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def is_exact(name: str) -> bool:
    """True for metrics that must be identical at a fixed seed."""
    if name.startswith("sim_") or ".sim_" in name:
        return True
    return not (name.startswith("harness.") or name.endswith(_HOST_SUFFIXES)
                or name in ("host_ops_per_s", "peak_rss_mb", "setup_s"))


def _spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- one workload, one process ------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str, trace_out: Optional[str]) -> Dict[str, Any]:
    """Measure one workload in this process; returns the result document."""
    t_import = time.perf_counter()
    from benchmarks.perf import driver, layers, probes
    from benchmarks.perf.inputs import WORKLOADS
    # Calibrated like every other host time (see driver._Stopwatch),
    # but only the burst after it: the loop lives in what it imports.
    import_s = ((time.perf_counter() - t_import)
                * probes.burst() / driver.CALIB_REF)

    workload = WORKLOADS[name]
    geo = workload.geometry(scale)
    driver.run_repeat(workload, workload.quick, seed)       # warm-up

    def calibrated_repeat(**kwargs):
        return driver.run_repeat(workload, geo, seed, burst=probes.burst,
                                 **kwargs)

    repeats = [calibrated_repeat()]
    twin = None         # hub-less run of the observed workload's inputs
    samples: List[float] = []
    values: Dict[str, Optional[float]] = {}
    if trace:
        plain = repeats[0]
        profile = cProfile.Profile()
        traced = driver.run_repeat(workload, geo, seed,
                                   timed=profile.runcall)
        repeats.append(traced)
        by_layer = layers.breakdown(profile.getstats())
        total = sum(row["self_s"] for row in by_layer.values())
        for layer, row in by_layer.items():
            values[f"{layer}.self_s"] = row["self_s"]
            values[f"{layer}.self_share"] = row["self_s"] / total
            values[f"{layer}.calls"] = row["calls"]
        values["harness.profile_overhead_ratio"] = (traced.timed_wall
                                                    / plain.timed_wall)
        values["harness.profile_coverage"] = total / traced.timed_wall
        values["harness.raw_ops_per_s"] = plain.ops / plain.timed_wall
        values["obs.on_off_ratio"] = None
        if workload.observed:
            twin = calibrated_repeat(observed=False)
            values["obs.on_off_ratio"] = (plain.timed_calibrated
                                          / twin.timed_calibrated)
        values.update(plain.counters)
        values["sim.core.events_per_s"] = (plain.counters["sim.core.events"]
                                           / plain.timed_wall)
        values.update(("workloads." + key, value)
                      for key, value in plain.sim.items())
        values["workloads.ops"] = plain.ops
        values.update(probes.run_probes())
        if trace_out:
            write_spans(trace_out, name, traced)
    else:
        spent = repeats[0].timed_wall
        while (len(repeats) < MIN_REPEATS
               or spent + spent / len(repeats) <= seconds):
            repeats.append(calibrated_repeat())
            spent += repeats[-1].timed_wall
            if len(repeats) == MIN_REPEATS:
                # Read here, after the same work on every run: later
                # repeats, whose number the machine's speed decides,
                # still grow the high-water mark a little.
                values["peak_rss_mb"] = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
        samples = [r.ops / r.timed_calibrated for r in repeats]
        values["host_ops_per_s"] = statistics.median(samples)
        values["setup_s"] = import_s + statistics.median(
            r.setup_calibrated for r in repeats)
        values.update(repeats[0].sim)
    ran = repeats + ([twin] if twin else [])
    bursts = [rate for r in ran for rate in r.bursts]
    values["harness.calib_loops_per_s"] = statistics.median(bursts)
    values["harness.calib_drift"] = _spread(bursts)

    # Every repeat replays the same inputs through the same code, so
    # they must agree on every simulated number.
    for rep in repeats[1:]:
        if rep.sim != repeats[0].sim:
            rep.mismatches.append("simulated metrics differ from repeat 0")
        drift = [k for k, v in rep.counters.items()
                 if is_exact(k) and v != repeats[0].counters[k]]
        if drift:
            rep.mismatches.append(f"counters differ from repeat 0: {drift}")
    problems = [m for r in ran for m in r.mismatches]
    attempted = sum(r.ops for r in ran)
    failed = sum(r.failed_ops for r in ran) + len(problems)
    values["workloads.op_fail_share"] = failed / attempted
    return {
        "workload": name, "scale": scale, "seed": seed, "trace": trace,
        "repeats": len(repeats), "attempted": attempted, "failed": failed,
        "problems": problems[:20],
        "noisy": values["harness.calib_drift"] > NOISY_DRIFT,
        "host_ops_per_s_samples": samples,
        "values": values,
    }


def write_spans(path: str, workload: str, rep: Any) -> None:
    """The driver's own spans: one per phase, one per client op."""
    spans = []
    for idx, (phase, start, end) in enumerate(rep.phase_spans):
        spans.append({"id": idx, "name": phase, "parent": None,
                      "start": start, "end": end})
        for rank, (starts, ends) in enumerate(rep.op_spans[idx]):
            spans.extend({"name": phase, "rank": rank, "parent": idx,
                          "start": s, "end": e}
                         for s, e in zip(starts, ends))
    with open(path, "w") as fh:
        json.dump({"workload": workload, "clock": "simulated seconds",
                   "spans": spans}, fh)


def report(doc: Dict[str, Any], spec: Dict[str, Any]) -> Dict[str, Any]:
    """Print every metric of this pass by name; return the driver line."""
    section = "per_layer" if doc["trace"] else "end_to_end"
    print(f"== {doc['workload']} [{section}] scale={doc['scale']}"
          f" seed={doc['seed']} repeats={doc['repeats']}"
          + (" NOISY" if doc["noisy"] else ""))
    metrics = {}
    for metric in spec[section]:
        value = doc["values"][metric["name"]]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {metric['name']:<38} {shown:>14} {metric['unit']}")
        # The result line carries numbers only: a counter the system
        # does not have reads 0 there and null in the --out document.
        metrics[metric["name"]] = {"value": 0 if value is None else value,
                                   "unit": metric["unit"]}
    for problem in doc["problems"]:
        print(f"  !! {problem}")
    return {"correct": doc["failed"] == 0, "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}


# -- the whole suite ------------------------------------------------------------

def run_suite(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    started = time.perf_counter()
    results: Dict[str, Any] = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        merged: Dict[str, Any] = {"values": {}, "noisy": False,
                                  "problems": [], "attempted": 0,
                                  "failed": 0}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--full-result"]
            if args.quick:
                cmd.append("--quick")
            if trace and args.trace_out:
                cmd += ["--trace-out", f"{args.trace_out}.{workload}.json"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  cwd=ROOT)
            lines = proc.stdout.splitlines()
            if proc.returncode not in (0, 1) or len(lines) < 2:
                print(proc.stdout, end="")
                print(f"{workload}: worker exited {proc.returncode}",
                      file=sys.stderr)
                return 2
            print("\n".join(lines[:-2]))
            doc = json.loads(lines[-2])
            ok = ok and proc.returncode == 0
            merged["values"].update(doc["values"])
            merged["noisy"] = merged["noisy"] or doc["noisy"]
            merged["problems"] += doc["problems"]
            merged["attempted"] += doc["attempted"]
            merged["failed"] += doc["failed"]
            if not trace:
                merged["repeats"] = doc["repeats"]
                merged["host_ops_per_s_samples"] = doc[
                    "host_ops_per_s_samples"]
        merged["values"]["workloads.op_fail_share"] = (merged["failed"]
                                                       / merged["attempted"])
        results[workload] = merged
    out = {
        "schema": "pacon.perfbench/v1",
        "scale": "quick" if args.quick else "full",
        "seed": args.seed, "seconds": args.seconds,
        "python": platform.python_version(),
        "wall_s": time.perf_counter() - started,
        "workloads": results,
    }
    print(f"suite finished in {out['wall_s']:.1f} s:"
          f" {'verification passed' if ok else 'VERIFICATION FAILED'}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


# -- comparing two suite results ---------------------------------------------------

def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """B against A: host metrics within their bounds, the rest exact."""
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    for key in ("scale", "seed"):
        if a[key] != b[key]:
            print(f"refusing to compare: {key} {a[key]!r} vs {b[key]!r}")
            return 2
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        va, vb = wa["values"], wb["values"]
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if is_exact(name):
                continue
            change = vb[name] / va[name] - 1
            if metric["better"] == "lower":
                change = -change
            spread = 0.0
            if name == "host_ops_per_s":
                spread = max(_spread(wa["host_ops_per_s_samples"]),
                             _spread(wb["host_ops_per_s_samples"]))
            if change < -bound:
                verdict = "WORSE"
                bad += 1
            elif spread > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "better"
            else:
                verdict = "within-bound"
            print(f"  {name:<38} {va[name]:>12.6g} -> {vb[name]:>12.6g}"
                  f" {change:+8.1%} (bound {bound:.0%}, spread"
                  f" {spread:.1%}) {verdict}")
        drift = [k for k in sorted(va.keys() | vb.keys())
                 if is_exact(k) and va.get(k) != vb.get(k)]
        for name in drift:
            print(f"  {name:<38} {va.get(name)!r} -> {vb.get(name)!r}"
                  " DRIFT")
        bad += len(drift)
        exact = sum(1 for k in va if is_exact(k))
        print(f"  {exact - len(drift)}/{exact} simulated metrics and"
              " call counts identical")
    print("compare: " + ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the driver's spans here")
    parser.add_argument("--quick", action="store_true",
                        help="2x5-client smoke geometry")
    parser.add_argument("--out", help="suite: write the result document")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--full-result", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no src/repro under {ROOT}: run from a full checkout",
              file=sys.stderr)
        return 2
    for entry in (str(ROOT), str(ROOT / "src")):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 0.0 if args.quick else float(spec["run_seconds"])
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        return run_suite(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    doc = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), "quick" if args.quick else "full",
                       args.trace_out)
    line = report(doc, spec)
    if args.full_result:
        print(json.dumps(doc))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
