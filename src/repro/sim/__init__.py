"""Discrete-event simulation (DES) kernel and cluster substrate.

This package is the performance substrate for the Pacon reproduction.  All
distributed actors in the repository (metadata servers, cache nodes, commit
processes, workload clients) run as generator-based processes on the
:class:`~repro.sim.core.Environment`, charge time through explicit cost
models (:mod:`repro.sim.costs`), contend on capacity-limited
:class:`~repro.sim.resources.Resource` objects, and exchange messages over
the latency/bandwidth network model in :mod:`repro.sim.network`.

The kernel is SimPy-flavoured but self-contained: the reproduction has no
third-party runtime dependencies beyond numpy.  A process waits by
yielding an event, sleeps by yielding the delay itself (``yield dt`` with
``dt`` a float) and parks by yielding the owner of the wait — ``yield
resource`` for a slot, ``yield queue`` for a message, ``yield barrier``
for a rendezvous — the last two kinds with no event object
(``docs/kernel.md``, "Sleeping" and "Parking").
"""

from repro.sim.core import (
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    run_sync,
)
from repro.sim.resources import Barrier, Resource
from repro.sim.network import (
    Cluster,
    Network,
    Node,
    NodeDownError,
    Service,
)
from repro.sim.costs import CostModel
from repro.sim.rng import RngStreams

__all__ = [
    "Barrier",
    "Cluster",
    "CostModel",
    "Environment",
    "Event",
    "Interrupt",
    "Network",
    "Node",
    "NodeDownError",
    "Process",
    "Resource",
    "RngStreams",
    "Service",
    "SimulationError",
    "run_sync",
]
