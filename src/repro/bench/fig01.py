"""Fig. 1 (motivation): client scalability of BeeGFS and IndexFS.

The paper ran file creation with growing client counts on a 16-node
cluster (BeeGFS with a single MDS; IndexFS on all client nodes over
BeeGFS) and reported the throughput *multiple* relative to the one-client
case — showing both flatten long before client counts stop growing.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

from repro.bench.report import experiment
from repro.bench.systems import create_throughput

__all__ = ["run", "SCALES", "client_sweep"]

# (nodes, clients_per_node) sweep points; first point is the baseline.
SCALES: Dict[str, Dict] = {
    "smoke": {"points": [(1, 1), (1, 4), (2, 4)], "items": 15},
    "ci": {"points": [(1, 1), (1, 4), (2, 8), (4, 10)], "items": 25},
    "paper": {"points": [(1, 1), (1, 20), (2, 20), (4, 20), (8, 20),
                         (16, 20)], "items": 100},
}


def client_sweep(params: Dict, seed: int, systems: Sequence[str]
                 ) -> Iterator[Tuple[str, int, int, float, float]]:
    """The Fig. 1 / Fig. 11 sweep: creation throughput per system per point.

    Yields ``(system, nodes, clients, ops_per_sec, multiple)`` where
    ``multiple`` is relative to the system's first (one-client) point.
    """
    for system in systems:
        base = None
        for nodes, cpn in params["points"]:
            ops = create_throughput(system, nodes, cpn, params["items"],
                                    seed=seed)
            if base is None:
                base = ops
            yield system, nodes, nodes * cpn, ops, round(ops / base, 2)


@experiment("fig01", "Client scalability (creation throughput multiple vs"
            " 1 client)", SCALES)
def run(out, params, seed):
    for system, nodes, clients, ops, multiple in client_sweep(
            params, seed, ("beegfs", "indexfs")):
        out.add(system=system, clients=clients, nodes=nodes,
                ops_per_sec=round(ops), multiple=multiple)
    max_clients = max(n * c for n, c in params["points"])
    for system in ("beegfs", "indexfs"):
        peak = max(r["multiple"] for r in out.where(system=system))
        out.derive(f"{system}_peak_multiple", peak)
        out.note(f"{system}: peak speedup {peak}x at up to {max_clients}"
                 f" clients — far from linear (paper Fig. 1 shape)")
