"""mdtest-equivalent metadata workload.

Reproduces the structure of LLNL's mdtest as the paper uses it:

* N concurrent clients (MPI ranks) spread over nodes,
* phases separated by barriers: ``mkdir`` — every client creates its
  directories; ``create`` — empty files; ``stat`` — random getattr over the
  created items; optionally ``rm``,
* all clients work in one shared parent directory (the paper's single- and
  multi-application experiments use depth-1 shared-parent trees), and
* a tree builder (``fanout``/``depth``) plus a random-leaf-stat phase for
  the path-traversal experiments (Figs. 2 and 9).

Any client object with generator methods ``mkdir/create/getattr/rm`` works:
the DFS client, the IndexFS client, and the Pacon client all qualify, so
one workload drives all three systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

from repro.sim.core import Environment, Event
from repro.sim.resources import Barrier
from repro.sim.rng import default_rng

__all__ = ["MdtestConfig", "MdtestResult", "MdtestHandle", "run_mdtest",
           "spawn_mdtest", "run_closed_loop", "run_random_stat",
           "build_tree"]

ClientBody = Callable[[int, Any], Generator[Event, Any, None]]


@dataclass
class MdtestConfig:
    """One mdtest invocation."""

    workdir: str = "/workspace"
    items_per_client: int = 50          # -n: files/dirs per rank per phase
    phases: Sequence[str] = ("mkdir", "create", "stat")
    stat_random_global: bool = True     # stat random items across all ranks
    stats_per_client: Optional[int] = None  # default: items_per_client
    #: mdtest -u: each rank works in its own subdirectory (the N-N
    #: pattern) instead of the shared parent.  An implicit setup phase
    #: creates the per-rank directories before the timed phases.
    unique_dir_per_rank: bool = False


@dataclass
class MdtestResult:
    """Aggregate per-phase results (ops/sec and wall time)."""

    phase_ops_per_sec: Dict[str, float] = field(default_factory=dict)
    phase_elapsed: Dict[str, float] = field(default_factory=dict)
    total_ops: int = 0

    def ops(self, phase: str) -> float:
        return self.phase_ops_per_sec.get(phase, 0.0)


@dataclass
class MdtestHandle:
    """A spawned (but not yet awaited) mdtest instance."""

    procs: List[Any]
    _finalize: Callable[[], "MdtestResult"]

    def result(self) -> "MdtestResult":
        """Collect results; every process must have completed."""
        return self._finalize()


def spawn_mdtest(env: Environment, clients: Sequence[Any],
                 config: MdtestConfig) -> MdtestHandle:
    """Spawn an mdtest instance without driving the event loop.

    Lets multiple instances (the paper's concurrent applications, Fig. 8)
    run simultaneously: spawn each, then run the env until all complete.
    """
    if not clients:
        raise ValueError("need at least one client")
    n = len(clients)
    barrier = Barrier(env, parties=n, name="mdtest")
    result = MdtestResult()
    phase_starts: Dict[str, float] = {}
    phase_ends: Dict[str, float] = {}
    # Deterministic per-client item names: rank-scoped to avoid conflicts
    # (mdtest ranks create distinct names inside the shared parent; with
    # unique_dir_per_rank each rank gets its own subdirectory, -u style).
    def rank_base(rank: int) -> str:
        if config.unique_dir_per_rank:
            return f"{config.workdir}/rank{rank}"
        return config.workdir

    all_dirs = [f"{rank_base(rank)}/dir.{rank}.{i}"
                for rank in range(n) for i in range(config.items_per_client)]
    all_files = [f"{rank_base(rank)}/file.{rank}.{i}"
                 for rank in range(n) for i in range(config.items_per_client)]

    def mark_start(phase: str) -> None:
        phase_starts.setdefault(phase, env.now)

    def mark_end(phase: str) -> None:
        phase_ends[phase] = max(phase_ends.get(phase, 0.0), env.now)

    def client_proc(rank: int, client: Any) -> Generator[Event, Any, None]:
        stat_rng = (default_rng(0xAB * 31 + rank)
                    if "stat" in config.phases else None)
        base = rank_base(rank)
        if config.unique_dir_per_rank:
            yield from client.mkdir(base)  # untimed setup, mdtest -u style
        for phase in config.phases:
            yield barrier
            mark_start(phase)
            if phase == "mkdir":
                for i in range(config.items_per_client):
                    yield from client.mkdir(f"{base}/dir.{rank}.{i}")
                    result.total_ops += 1
            elif phase == "create":
                for i in range(config.items_per_client):
                    yield from client.create(f"{base}/file.{rank}.{i}")
                    result.total_ops += 1
            elif phase == "stat":
                count = config.stats_per_client or config.items_per_client
                pool = all_files if "create" in config.phases else all_dirs
                for _ in range(count):
                    if config.stat_random_global:
                        target = pool[stat_rng.integers(0, len(pool))]
                    else:
                        base = rank * config.items_per_client
                        target = pool[base + int(
                            stat_rng.integers(0, config.items_per_client))]
                    yield from client.getattr(target)
                    result.total_ops += 1
            elif phase == "rm":
                for i in range(config.items_per_client):
                    yield from client.rm(f"{base}/file.{rank}.{i}")
                    result.total_ops += 1
            else:
                raise ValueError(f"unknown phase {phase!r}")
            yield barrier
            mark_end(phase)

    procs = [env.process(client_proc(rank, client),
                         label=f"mdtest:rank{rank}")
             for rank, client in enumerate(clients)]

    def finalize() -> MdtestResult:
        per_phase_ops = {
            "mkdir": config.items_per_client * n,
            "create": config.items_per_client * n,
            "stat": (config.stats_per_client or config.items_per_client) * n,
            "rm": config.items_per_client * n,
        }
        for phase in config.phases:
            elapsed = phase_ends[phase] - phase_starts[phase]
            result.phase_elapsed[phase] = elapsed
            result.phase_ops_per_sec[phase] = (
                per_phase_ops[phase] / elapsed if elapsed > 0 else 0.0)
        return result

    return MdtestHandle(procs=procs, _finalize=finalize)


def run_mdtest(env: Environment, clients: Sequence[Any],
               config: MdtestConfig) -> MdtestResult:
    """Spawn one mdtest instance and drive the env until it completes."""
    handle = spawn_mdtest(env, clients, config)
    for proc in handle.procs:
        env.run(until=proc)
    return handle.result()


def build_tree(env: Environment, client: Any, root: str, fanout: int,
               depth: int) -> List[str]:
    """Create a uniform directory tree; returns the leaf directory paths.

    Used by the path-traversal experiments: "we used mdtest to create a
    namespace with 5 fanouts ... increased the namespace depth".
    """
    leaves: List[str] = []

    def builder() -> Generator[Event, Any, None]:
        frontier = [root]
        for level in range(depth):
            next_frontier = []
            for parent in frontier:
                for k in range(fanout):
                    path = f"{parent}/d{k}"
                    yield from client.mkdir(path)
                    next_frontier.append(path)
            frontier = next_frontier
        leaves.extend(frontier)

    proc = env.process(builder(), label="build_tree")
    env.run(until=proc)
    return leaves


def run_closed_loop(env: Environment, clients: Sequence[Any],
                    body: ClientBody,
                    setup: Optional[ClientBody] = None) -> float:
    """One barrier-timed phase; returns its simulated elapsed time.

    Every client runs ``setup(rank, client)`` (untimed, optional), meets
    the others at a barrier, runs ``body(rank, client)``, and meets them
    again — mdtest's phase timing: the clock starts when the first client
    leaves the opening barrier and stops when the last leaves the closing
    one.
    """
    if not clients:
        raise ValueError("need at least one client")
    barrier = Barrier(env, parties=len(clients), name="closed_loop")
    span = {"start": None, "end": 0.0}

    def proc(rank: int, client: Any) -> Generator[Event, Any, None]:
        if setup is not None:
            yield from setup(rank, client)
        yield barrier
        if span["start"] is None:
            span["start"] = env.now
        yield from body(rank, client)
        yield barrier
        span["end"] = max(span["end"], env.now)

    procs = [env.process(proc(rank, client), label=f"closed_loop:{rank}")
             for rank, client in enumerate(clients)]
    for p in procs:
        env.run(until=p)
    return span["end"] - span["start"]


def run_random_stat(env: Environment, clients: Sequence[Any],
                    targets: Sequence[str], stats_per_client: int) -> float:
    """Random getattr phase over ``targets``; returns aggregate ops/sec."""
    if not clients or not targets:
        raise ValueError("need clients and targets")

    def body(rank: int, client: Any) -> Generator[Event, Any, None]:
        stat_rng = default_rng(0xCD * 131 + rank)
        for _ in range(stats_per_client):
            target = targets[int(stat_rng.integers(0, len(targets)))]
            yield from client.getattr(target)

    elapsed = run_closed_loop(env, clients, body)
    total = stats_per_client * len(clients)
    return total / elapsed if elapsed > 0 else 0.0
