"""pytest-benchmark configuration for the figure-regeneration benches.

Each ``bench_*`` file regenerates one table/figure of the paper at smoke
scale (CI-friendly), asserts the paper's qualitative claims (who wins, by
roughly what factor, where crossovers fall), and registers the headline
metric with pytest-benchmark so regressions in the *simulator's own*
performance are tracked too.

Run with::

    pytest benchmarks/ --benchmark-only

Full regeneration at paper scale: ``pacon-bench all --scale paper``.
"""

import pytest


@pytest.fixture(scope="session")
def scale() -> str:
    return "smoke"
