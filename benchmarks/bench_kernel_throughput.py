"""DES-kernel throughput: how fast the substrate itself runs.

Not a paper figure — this tracks the simulator's own event-processing
rate so regressions in kernel hot paths (heap ops, process resume,
resource handoff, interrupt detach) show up in benchmark history.  All
experiments at paper scale are O(millions) of events; kernel speed bounds
experiment wall-clock.

Two faces:

* pytest-benchmark tests (collected with the rest of ``benchmarks/``)
  keep the scenarios in the perf history of every test run, and
* a snapshot emitter (``python benchmarks/bench_kernel_throughput.py
  --scale tiny --label fresh --out bench_kernel.json``) that writes a
  ``pacon.bench/v1`` document: per-scenario **event counts are simulated
  metrics** (deterministic — a kernel rewrite that changes them changed
  semantics), while **events/sec are host metrics** (vary run to run).
  CI gates the counts via ``pacon-bench compare`` against
  ``benchmarks/baseline_kernel.json``.
"""

from __future__ import annotations

import time
from typing import Dict, Tuple

from repro.sim.core import AllOf, AnyOf, Environment, Interrupt
from repro.sim.resources import Resource

#: (processes, hops) per scenario per scale.  ``tiny`` is the CI smoke
#: gate; ``bench`` is large enough for stable events/sec measurements
#: (the committed before/after evidence pair).
SCALES: Dict[str, Dict[str, Tuple[int, int]]] = {
    "tiny": {"timeout_storm": (60, 20), "resource_churn": (40, 15),
             "interrupt_storm": (24, 8), "condition_fanin": (20, 10)},
    "bench": {"timeout_storm": (400, 150), "resource_churn": (250, 120),
              "interrupt_storm": (120, 40), "condition_fanin": (120, 60)},
}


def _timeout_storm(n_processes: int, hops: int) -> int:
    """Pure sleep churn: the schedule/pop/resume cycle of a bare delay
    (same heap entries as the ``env.timeout`` spelling it replaced)."""
    env = Environment()

    def proc(i):
        for h in range(hops):
            yield 1e-6 * ((i + h) % 7 + 1)

    for i in range(n_processes):
        env.process(proc(i))
    env.run()
    return env.processed_events


def _resource_churn(n_processes: int, hops: int) -> int:
    """Contended acquire/release: grant handoff and wait accounting."""
    env = Environment()
    res = Resource(env, capacity=4)

    def proc(i):
        for _ in range(hops):
            yield from res.use(1e-6)

    for i in range(n_processes):
        env.process(proc(i))
    env.run()
    return env.processed_events


def _interrupt_storm(n_processes: int, hops: int) -> int:
    """Chaos-style detach pressure: every victim is interrupted out of a
    long sleep ``hops`` times, leaving its original wake-up to fire into
    nothing (one stale heap entry per interrupt, dropped by an identity
    check)."""
    env = Environment()

    def victim(i):
        for _ in range(hops):
            try:
                yield 1000.0
            except Interrupt:
                pass

    victims = [env.process(victim(i)) for i in range(n_processes)]

    def killer():
        for h in range(hops):
            yield 1e-3
            for v in victims:
                if v.is_alive:
                    v.interrupt(h)

    env.process(killer())
    env.run()
    return env.processed_events


def _condition_fanin(n_processes: int, hops: int) -> int:
    """AnyOf/AllOf composition: one fast winner racing slow losers, then
    a small AllOf join — exercises loser-callback detach."""
    env = Environment()

    def proc(i):
        for h in range(hops):
            winner = env.timeout(1e-6, value=i)
            losers = [env.timeout(1e-3 * (k + 1)) for k in range(3)]
            idx, value = yield AnyOf(env, [winner] + losers)
            assert idx == 0 and value == i
            yield AllOf(env, [env.timeout(1e-6), env.timeout(2e-6)])

    for i in range(n_processes):
        env.process(proc(i))
    env.run()
    return env.processed_events


SCENARIOS = {
    "timeout_storm": _timeout_storm,
    "resource_churn": _resource_churn,
    "interrupt_storm": _interrupt_storm,
    "condition_fanin": _condition_fanin,
}


# ------------------------------------------------------------ pytest face
def test_kernel_timeout_throughput(benchmark):
    events = benchmark.pedantic(_timeout_storm, args=(200, 50),
                                iterations=1, rounds=3)
    assert events >= 200 * 50


def test_kernel_resource_throughput(benchmark):
    events = benchmark.pedantic(_resource_churn, args=(100, 50),
                                iterations=1, rounds=3)
    assert events >= 100 * 50


def test_kernel_interrupt_throughput(benchmark):
    events = benchmark.pedantic(_interrupt_storm, args=(40, 10),
                                iterations=1, rounds=3)
    assert events >= 40 * 10


def test_kernel_condition_throughput(benchmark):
    events = benchmark.pedantic(_condition_fanin, args=(40, 20),
                                iterations=1, rounds=3)
    assert events >= 40 * 20


# --------------------------------------------------------- snapshot face
def run(scale: str = "tiny", rounds: int = 3):
    """Run every scenario; returns an ExperimentResult for snapshots.

    Event counts land in ``rows`` (simulated — byte-identical run to
    run); per-scenario best-of-``rounds`` events/sec land in the
    experiment's ``host`` section.
    """
    from repro.bench.report import ExperimentResult

    params = SCALES[scale]
    out = ExperimentResult(
        experiment="kernel",
        title="DES kernel event throughput",
        scale=scale, seed=0,
        params={name: list(args) for name, args in params.items()})
    total_events = 0
    for name, (n, hops) in params.items():
        fn = SCENARIOS[name]
        events = 0
        best = float("inf")
        for _ in range(rounds):
            t0 = time.perf_counter()
            events = fn(n, hops)
            best = min(best, time.perf_counter() - t0)
        total_events += events
        out.add(scenario=name, processes=n, hops=hops, events=events)
        out.host[f"{name}_events_per_sec"] = round(events / best)
    out.derive("total_events", total_events)
    rates = [v for k, v in out.host.items() if k.endswith("_events_per_sec")]
    out.host["events_per_sec_min"] = min(rates)
    out.note(f"{total_events} events across {len(params)} scenarios"
             " (counts are simulated metrics; rates are host metrics)")
    return out


def main() -> int:  # pragma: no cover - CLI
    import argparse

    from repro.bench import runner

    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_kernel_throughput.py",
        description="Emit a pacon.bench/v1 kernel-throughput snapshot")
    parser.add_argument("--scale", choices=sorted(SCALES), default="tiny")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing repetitions per scenario (best-of)")
    parser.add_argument("--label", default="kernel")
    parser.add_argument("--out", default=None,
                        help="snapshot path (default BENCH_<label>.json)")
    args = parser.parse_args()
    t0 = time.perf_counter()
    result = run(args.scale, rounds=args.rounds)
    wall = time.perf_counter() - t0
    path = runner.write_snapshot_file([result], scale=args.scale, seed=0,
                                      path=args.out, label=args.label,
                                      wall_clock_s=wall)
    print(result.render())
    print(f"snapshot written to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
