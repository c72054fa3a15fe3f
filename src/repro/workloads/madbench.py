"""MADbench2-equivalent HPC application benchmark (Fig. 12).

MADbench2 (Borrill et al., SC'07) is derived from the MADspec CMB
analysis code and stresses I/O, computation, and communication together.
Its I/O pattern, as the paper describes and uses it: each process creates
one file in the initialization phase and writes its evaluation data, then
the processes read, write, and compute over those files repeatedly.

The reproduction keeps the paper's experiment shape: P processes × N
nodes, one file per process, ``file_size`` bytes each (4 MB in §IV.F),
with ``iterations`` alternating compute/write/read rounds.  The result is
the Fig. 12 breakdown: init (file creation) / write / read / other
(compute + communication) wall-clock shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Sequence

from repro.sim.core import Environment, Event
from repro.sim.resources import Barrier

__all__ = ["MadbenchConfig", "MadbenchResult", "run_madbench"]


@dataclass
class MadbenchConfig:
    workdir: str = "/madbench"
    file_size: int = 4 * 1024 * 1024   # bytes per process file
    iterations: int = 4                # S/W/C style rounds
    compute_time: float = 1.5e-3       # per-round matrix math (simulated)
    chunk: int = 1 * 1024 * 1024       # I/O granularity within a round


@dataclass
class MadbenchResult:
    """Per-component wall-clock breakdown, aggregated over processes."""

    init_time: float = 0.0
    write_time: float = 0.0
    read_time: float = 0.0
    other_time: float = 0.0
    total_time: float = 0.0

    def shares(self) -> Dict[str, float]:
        busy = self.init_time + self.write_time + self.read_time \
            + self.other_time
        if busy <= 0:
            return {"init": 0, "write": 0, "read": 0, "other": 0}
        return {
            "init": self.init_time / busy,
            "write": self.write_time / busy,
            "read": self.read_time / busy,
            "other": self.other_time / busy,
        }


def _write(client: Any, path: str, offset: int,
           nbytes: int) -> Generator[Event, Any, None]:
    """Adapter over the two client write signatures (Pacon vs DFS)."""
    if hasattr(client, "region"):  # PaconClient
        yield from client.write(path, offset, size=nbytes)
    else:
        yield from client.write(path, offset, nbytes)


def _read(client: Any, path: str, offset: int,
          nbytes: int) -> Generator[Event, Any, None]:
    yield from client.read(path, offset, nbytes)


def run_madbench(env: Environment, clients: Sequence[Any],
                 config: MadbenchConfig) -> MadbenchResult:
    """Run MADbench2-like phases over ``clients``; one file per client."""
    if not clients:
        raise ValueError("need at least one client")
    n = len(clients)
    barrier = Barrier(env, parties=n, name="madbench")
    acc = MadbenchResult()
    t_begin = {}
    t_end = {"t": 0.0}

    def proc(rank: int, client: Any) -> Generator[Event, Any, None]:
        path = f"{config.workdir}/data.{rank}"
        yield barrier
        t_begin.setdefault("t", env.now)
        # --- init: create the per-process file and write evaluation data.
        t0 = env.now
        yield from client.create(path)
        acc.init_time += env.now - t0
        t0 = env.now
        pos = 0
        while pos < config.file_size:
            take = min(config.chunk, config.file_size - pos)
            yield from _write(client, path, pos, take)
            pos += take
        acc.write_time += env.now - t0
        # --- S/W/C rounds: compute, write, read.
        for _ in range(config.iterations):
            t0 = env.now
            yield float(config.compute_time)
            acc.other_time += env.now - t0
            t0 = env.now
            pos = 0
            while pos < config.file_size:
                take = min(config.chunk, config.file_size - pos)
                yield from _write(client, path, pos, take)
                pos += take
            acc.write_time += env.now - t0
            t0 = env.now
            pos = 0
            while pos < config.file_size:
                take = min(config.chunk, config.file_size - pos)
                yield from _read(client, path, pos, take)
                pos += take
            acc.read_time += env.now - t0
        yield barrier
        t_end["t"] = max(t_end["t"], env.now)

    procs = [env.process(proc(rank, client), label=f"madbench:{rank}")
             for rank, client in enumerate(clients)]
    for p in procs:
        env.run(until=p)
    acc.total_time = t_end["t"] - t_begin["t"]
    return acc
