"""Fig. 9: path traversal analysis — now including Pacon.

Same methodology as Fig. 2 (random stat of directories in a fanout-5 tree
of growing depth) with Pacon added.  Paper: BeeGFS −63 %, IndexFS −47 % at
depth 6, while depth has "only a slight impact" on Pacon thanks to batch
permission management + full-path cache keys.
"""

from __future__ import annotations

from typing import Dict

from repro.bench.fig02 import depth_sweep
from repro.bench.report import experiment

__all__ = ["run", "SCALES"]

SCALES: Dict[str, Dict] = {
    "smoke": {"depths": [3, 5], "fanout": 3, "nodes": 2, "cpn": 3,
              "stats_per_client": 30},
    "ci": {"depths": [3, 4, 5, 6], "fanout": 3, "nodes": 2, "cpn": 5,
           "stats_per_client": 40},
    "paper": {"depths": [3, 4, 5, 6], "fanout": 5, "nodes": 16, "cpn": 20,
              "stats_per_client": 250},
}


@experiment("fig09", "Path traversal with batch permissions (stat vs depth)",
            SCALES)
def run(out, params, seed):
    depth_sweep(out, params, seed, {"beegfs": "~63%", "indexfs": "~47%",
                                    "pacon": "slight"})
