"""What one DFS metadata RPC costs the host, as a count that repeats exactly.

Host seconds belong to ``benchmarks/perf``; this is the deterministic
fact behind them: how many Python-level calls a BeeGFS mkdir, create or
getattr makes inside ``repro/dfs/`` and the stdlib ``enum`` module, client
frames, MDS handlers and namespace walk together.
"""

import enum
import os
import sys

from repro.bench.systems import make_testbed

#: Python-level calls in ``repro/dfs/`` or ``enum`` per op.  The commit
#: before canonical paths passed straight through ``normalize_path`` and
#: each op resumed through one client frame measured 151.67 (5 460 calls
#: / 36 ops); this tree measures 69.67 (2 508 / 36).  The ceiling sits
#: midway.
CALLS_PER_OP_CEILING = 110.0

_DFS_DIR = os.sep + os.path.join("repro", "dfs") + os.sep


def _workload(client, i):
    for j in range(3):
        directory = f"/app/d{i}_{j}"
        yield from client.mkdir(directory)
        yield from client.create(directory + "/f")
        yield from client.getattr(directory + "/f")


def test_dfs_calls_per_op():
    bed = make_testbed("beegfs", nodes_per_app=2, clients_per_node=2,
                       seed=7)
    for i, client in enumerate(bed.clients):
        bed.env.process(_workload(client, i))
    calls = 0

    def count(frame, event, _arg):
        nonlocal calls
        if event == "call":
            filename = frame.f_code.co_filename
            if _DFS_DIR in filename or filename == enum.__file__:
                calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        bed.env.run()
    finally:
        sys.setprofile(previous)
    ops = 9 * len(bed.clients)
    assert ops == 36 and bed.dfs.namespace.count_entries() == 1 + 24
    assert calls / ops <= CALLS_PER_OP_CEILING
