"""Host time by layer, from a ``cProfile`` pass over the timed section.

A function belongs to the layer its source file belongs to.  Built-in
and C functions have no file: their self time is charged to the layer
of the Python function that called them, so ``heapq.heappush`` called
from the kernel counts as kernel time.  ``calls`` counts Python-level
calls (a generator resume is one) and repeats exactly from run to run.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

LAYERS = ("sim.core", "sim.resources", "sim.network", "kvstore", "dfs",
          "mq", "core", "baselines", "obs", "workloads", "other")

_PERF_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_REPRO = os.sep + "repro" + os.sep
#: ``sim/trace.py`` and ``sim/stats.py`` are the recording half of the
#: observability stack; the rest of ``sim`` (costs, rng) is "other".
_SIM_MODULES = {"core.py": "sim.core", "resources.py": "sim.resources",
                "network.py": "sim.network", "trace.py": "obs",
                "stats.py": "obs"}
_PACKAGES = ("kvstore", "dfs", "mq", "core", "baselines", "obs", "workloads")


def layer_of(filename: str) -> str:
    if filename.startswith(_PERF_DIR):
        return "workloads"
    _, found, rest = filename.rpartition(_REPRO)
    package, _, module = rest.partition(os.sep)
    if not found:
        return "other"
    if package == "sim":
        return _SIM_MODULES.get(module, "other")
    return package if package in _PACKAGES else "other"


def breakdown(stats: List[Any]) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` from ``Profile.getstats()``."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    builtin_total = 0.0
    builtin_charged = 0.0
    for entry in stats:
        if isinstance(entry.code, str):
            builtin_total += entry.inlinetime
            continue
        layer = out[layer_of(entry.code.co_filename)]
        layer["self_s"] += entry.inlinetime
        layer["calls"] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                layer["self_s"] += sub.inlinetime
                builtin_charged += sub.inlinetime
    # Built-ins reached from other built-ins (or from the profiler's
    # own enable/disable) have no Python caller to charge.
    out["other"]["self_s"] += builtin_total - builtin_charged
    return out
