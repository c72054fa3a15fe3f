"""Discrete-event simulation (DES) kernel and cluster substrate.

This package is the performance substrate for the Pacon reproduction.  All
distributed actors in the repository (metadata servers, cache nodes, commit
processes, workload clients) run as generator-based processes on the
:class:`~repro.sim.core.Environment`, charge time through explicit cost
models (:mod:`repro.sim.costs`), contend on capacity-limited
:class:`~repro.sim.resources.Resource` objects, and exchange messages over
the latency/bandwidth network model in :mod:`repro.sim.network`.

The kernel is intentionally SimPy-flavoured (``yield resource.acquire()``,
``yield env.timeout(dt)`` where the request or the delay must be an
event) but self-contained: the reproduction has no third-party runtime
dependencies beyond numpy.  A process that only sleeps yields the delay
itself, ``yield dt`` with ``dt`` a float, and one that wants a slot
yields the resource, ``yield resource`` — same schedule, no event object
(``docs/kernel.md``, "Sleeping" and "Parking").
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
    run_sync,
)
from repro.sim.resources import Barrier, Resource
from repro.sim.network import (
    Cluster,
    Network,
    NetworkParams,
    Node,
    NodeDownError,
    Service,
)
from repro.sim.costs import CostModel
from repro.sim.rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Barrier",
    "Cluster",
    "CostModel",
    "Environment",
    "Event",
    "Interrupt",
    "Network",
    "NetworkParams",
    "Node",
    "NodeDownError",
    "Process",
    "Resource",
    "RngStreams",
    "Service",
    "SimulationError",
    "Timeout",
    "run_sync",
]
