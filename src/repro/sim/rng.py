"""Deterministic random-number streams.

Every stochastic component (workload generators, DHT hashing salts, failure
injection) draws from its own named child stream derived from a single root
seed, so adding a new consumer never perturbs the draws seen by existing
ones.  This is the standard independent-streams discipline for reproducible
parallel simulation.

numpy is imported at the first draw, not with this module: every
``Cluster`` owns an :class:`RngStreams`, and a run that never draws never
pays numpy's import time or memory.  The root seed material is built at
that first draw too: a child stream takes the root seed as its entropy
(``SeedSequence(seed).entropy == seed``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    import numpy as np

__all__ = ["DEFAULT_SEED", "RngStreams", "default_rng", "stable_hash"]

#: The one seed every experiment, chaos scenario and CLI verb defaults
#: to.  It lives here, below both ``repro.bench`` and ``repro.chaos``, so
#: chaos stays importable without the bench drivers.
DEFAULT_SEED = 0xBEE


class RngStreams:
    """Named, independent numpy Generators under one root seed."""

    def __init__(self, seed: int = 0xC0FFEE):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream for ``name``.

        The stream is derived from ``(root_seed, name)`` only — stable
        across runs and across creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            import numpy as np
            child = np.random.SeedSequence(
                entropy=self.seed,
                spawn_key=(stable_hash(name),),
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen


def default_rng(seed: int) -> np.random.Generator:
    """``numpy.random.default_rng(seed)``, importing numpy on first use."""
    import numpy as np
    return np.random.default_rng(seed)


def stable_hash(name: str) -> int:
    """A process-invariant string hash (Python's hash() is salted).

    Anything that derives an on-"disk" or on-wire name from a path — e.g.
    the fsync shadow files of §III.D.2 — must use this instead of the
    built-in ``hash()``, or two runs (or two processes of one run) with
    different ``PYTHONHASHSEED`` values diverge and break the
    same-seed-identical-trace guarantee of :mod:`repro.sim.trace`.
    """
    h = 1469598103934665603  # FNV-1a 64-bit
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * 1099511628211) % (2 ** 64)
    return h % (2 ** 32)
