"""Fig. 11: metadata scalability (file creation, normalized).

Client count grows 20 per node as nodes are added (IndexFS servers and
Pacon cache/commit services grow with the client nodes; BeeGFS keeps its
single MDS).  Results are normalized by each system's single-client
throughput.  Paper: Pacon scales ~16.5× better than BeeGFS and ~2.8×
better than IndexFS at 320 clients, and exceeds 1 M creates/s.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.fig01 import client_sweep
from repro.bench.report import experiment, fmt_ops
from repro.bench.systems import SYSTEMS

__all__ = ["run", "run_wide", "SCALES", "WIDE_SCALES"]

SCALES: Dict[str, Dict] = {
    "smoke": {"points": [(1, 1), (2, 5)], "items": 15},
    "ci": {"points": [(1, 1), (1, 10), (2, 10), (4, 10)], "items": 25},
    "paper": {"points": [(1, 1), (1, 20), (2, 20), (4, 20), (8, 20),
                         (16, 20)], "items": 100},
}

#: The same sweep carried past the paper's 320 clients, Pacon only, one
#: simulated process per client.  ``items`` match ``SCALES`` so a point
#: both sweeps visit yields the identical number.
WIDE_SCALES: Dict[str, Dict] = {
    "smoke": {"points": [(1, 1), (2, 5), (4, 5)], "items": 15},
    "ci": {"points": [(1, 1), (4, 10), (8, 10)], "items": 25},
    "paper": {"points": [(1, 1), (16, 20), (32, 20), (64, 20)], "items": 100},
}


def _sweep(out, params, seed, systems) -> None:
    for system, _, clients, ops, normalized in client_sweep(
            params, seed, systems):
        out.add(system=system, clients=clients, ops_per_sec=round(ops),
                normalized=normalized)


@experiment("fig11", "Creation scalability (normalized to 1 client)", SCALES)
def run(out, params, seed):
    _sweep(out, params, seed, SYSTEMS)
    max_clients = max(n * c for n, c in params["points"])
    big = {s: out.where(system=s, clients=max_clients)[0] for s in SYSTEMS}
    out.derive("scaling_vs_beegfs", round(
        big["pacon"]["normalized"] / big["beegfs"]["normalized"], 3))
    out.derive("scaling_vs_indexfs", round(
        big["pacon"]["normalized"] / big["indexfs"]["normalized"], 3))
    out.derive("pacon_peak_ops_per_sec", big["pacon"]["ops_per_sec"])
    out.note(f"at {max_clients} clients: Pacon scaling is"
             f" {big['pacon']['normalized'] / big['beegfs']['normalized']:.1f}x"
             f" BeeGFS's and"
             f" {big['pacon']['normalized'] / big['indexfs']['normalized']:.1f}x"
             f" IndexFS's (paper: ~16.5x / ~2.8x at 320 clients)")
    out.note(f"Pacon absolute throughput at {max_clients} clients:"
             f" {fmt_ops(big['pacon']['ops_per_sec'])} OPS"
             " (paper: >1M OPS at 320 clients)")


@experiment("fig11_wide", "Creation scalability past the paper's 320 clients"
            " (Pacon)", WIDE_SCALES, in_all=False)
def run_wide(out, params, seed):
    _sweep(out, params, seed, ("pacon",))
    peak = out.rows[-1]
    out.derive("pacon_peak_ops_per_sec", peak["ops_per_sec"])
    out.note(f"Pacon at {peak['clients']} clients (one simulated process"
             f" each): {fmt_ops(peak['ops_per_sec'])} OPS")
