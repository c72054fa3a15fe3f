"""What one IndexFS metadata op costs the host, as a count that repeats
exactly.

Host seconds belong to ``benchmarks/perf``; this is the deterministic
fact behind them: how many Python-level calls an IndexFS mkdir, create or
getattr makes inside ``repro/baselines/``, ``repro/kvstore/`` and the
stdlib ``enum`` module -- client lease walk, placement, server handlers
and LSM tree together.  ``tests/dfs/test_host_path_budget.py`` is the
BeeGFS twin.
"""

import enum
import os
import sys

from repro.bench.systems import make_testbed

#: Python-level calls in ``repro/baselines/``, ``repro/kvstore/`` or
#: ``enum`` per op.  The commit before handlers yielded their LSM charge
#: straight from a cost function, wire values replaced enum calls and
#: placement kept each directory's md5 measured 62.17 (2 238 calls / 36
#: ops); this tree measures 42.75 (1 539 / 36).  The ceiling sits midway.
CALLS_PER_OP_CEILING = 52.5

_DIRS = tuple(os.sep + os.path.join("repro", package) + os.sep
              for package in ("baselines", "kvstore"))


def _workload(client, i):
    for j in range(3):
        directory = f"/app/d{i}_{j}"
        yield from client.mkdir(directory)
        yield from client.create(directory + "/f")
        yield from client.getattr(directory + "/f")


def test_indexfs_calls_per_op():
    bed = make_testbed("indexfs", nodes_per_app=2, clients_per_node=2,
                       seed=7)
    for i, client in enumerate(bed.clients):
        bed.env.process(_workload(client, i))
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call":
            filename = frame.f_code.co_filename
            if filename == enum.__file__ or any(d in filename for d in _DIRS):
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        bed.env.run()
    finally:
        sys.setprofile(previous)
    ops = 9 * len(bed.clients)
    assert ops == 36 and bed.indexfs.total_entries() == 1 + 24
    assert calls / ops <= CALLS_PER_OP_CEILING
