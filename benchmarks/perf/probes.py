"""Calibration loop and direct-call layer probes.

Each probe drives one layer through its public API with a fixed amount
of work, with no DES where the layer needs none, and reports work per
host second.  They answer "did this layer's own code get faster?"
without the rest of the system in the way; the workloads answer whether
that mattered.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Dict, List

from repro.dfs.namespace import Namespace, normalize_path
from repro.kvstore.dht import ConsistentHashRing
from repro.kvstore.lsm import LSMTree
from repro.kvstore.memkv import MemKV
from repro.mq.queue import MessageQueue
from repro.sim.core import Environment
from repro.sim.network import Cluster, Service
from repro.sim.resources import Resource


def burst(loops: int = 15000) -> float:
    """One calibration burst: pure-Python heap push/pop + generator
    send, in loops per second (~8 ms).

    It uses nothing of the repo, so a change in its rate is the
    machine, not the code under test.
    """
    def echo():
        value = 0
        while True:
            value = yield value

    gen = echo()
    next(gen)
    heap: list = []
    start = time.perf_counter()
    for i in range(loops):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        if i & 1:
            heapq.heappop(heap)
        gen.send(i)
    return loops / (time.perf_counter() - start)


def _events() -> Callable[[], int]:
    # The ``timeout_storm`` shape of benchmarks/bench_kernel_throughput.py.
    env = Environment()

    def proc(i):
        for h in range(400):
            yield env.timeout(1e-6 * ((i + h) % 7 + 1))

    def work() -> int:
        for i in range(300):
            env.process(proc(i))
        env.run()
        return env.processed_events
    return work


def _acquires() -> Callable[[], int]:
    env = Environment()
    res = Resource(env, capacity=4)

    def proc():
        for _ in range(240):
            yield from res.use(1e-6)

    def work() -> int:
        for _ in range(200):
            env.process(proc())
        env.run()
        return res.total_acquires
    return work


class _Echo(Service):
    def handle_echo(self, value):
        yield self.env.timeout(1e-6)
        return value


def _rpcs() -> Callable[[], int]:
    cluster = Cluster(seed=1)
    src, dst = cluster.add_node("src"), cluster.add_node("dst")
    echo = _Echo(cluster, dst, "echo", workers=4)

    def proc(i):
        for k in range(120):
            yield from echo.request(src, "echo", i + k)

    def work() -> int:
        for i in range(40):
            cluster.env.process(proc(i))
        cluster.env.run()
        return echo.requests_served
    return work


def _record(ino: int) -> Dict:
    return {"ino": ino, "ftype": "file", "mode": 0o644, "uid": 1000,
            "gid": 1000, "size": 0, "ctime": 0.0, "mtime": 0.0, "nlink": 1,
            "inline_data": None, "committed": False, "deleted": False,
            "large": False, "shadow": False}


def _file_keys(count: int) -> List[str]:
    return [f"/app/file.{i % 160}.{i}" for i in range(count)]


def _memkv() -> Callable[[], int]:
    kv = MemKV()
    items = [(key, _record(i)) for i, key in enumerate(_file_keys(12000))]

    def work() -> int:
        for key, record in items:
            kv.set(key, record)
        for key, _ in items:
            value, token = kv.gets(key)
            kv.cas(key, dict(value, committed=True), token)
        return 3 * len(items)
    return work


def _lsm() -> Callable[[], int]:
    lsm = LSMTree(memtable_limit=1024)
    items = [(key, _record(i)) for i, key in enumerate(_file_keys(12000))]

    def work() -> int:
        for key, record in items:
            lsm.put(key, record)
        for key, _ in items:
            lsm.get(key)
        return 2 * len(items)
    return work


def _dht() -> Callable[[], int]:
    ring: ConsistentHashRing = ConsistentHashRing()
    for i in range(8):
        ring.add(f"shard{i}")
    keys = _file_keys(100000)

    def work() -> int:
        for key in keys:
            ring.lookup(key)
        return len(keys)
    return work


def _namespace() -> Callable[[], int]:
    ns = Namespace()
    ns.mkdir("/app")
    dirs = [f"/app/dir.{i}" for i in range(8000)]
    files = [f"/app/file.{i}" for i in range(8000)]

    def work() -> int:
        for path in dirs:
            ns.mkdir(path)
        for path in files:
            ns.create(path)
        for path in files:
            ns.getattr(path)
        return len(dirs) + 2 * len(files)
    return work


def _normalize() -> Callable[[], int]:
    # The 4096 depth-7 leaf paths of ``deepstat_pacon``'s tree.
    paths = ["/app/" + "/".join(f"d{(i >> s) & 3}" for s in range(0, 12, 2))
             for i in range(4096)]

    def work() -> int:
        for _ in range(30):
            for path in paths:
                normalize_path(path)
        return 30 * len(paths)
    return work


def _mq() -> Callable[[], int]:
    env = Environment()
    queue = MessageQueue(env, "probe")
    total = 80000

    def producer():
        for i in range(total):
            queue.publish(i)
            if i % 16 == 15:
                yield env.timeout(1e-6)

    def consumer():
        for _ in range(total):
            yield queue.get()

    def work() -> int:
        env.process(producer())
        env.run(until=env.process(consumer()))
        return queue.delivered
    return work


#: name -> set-up function returning the timed callable, which returns
#: the amount of work it did.
PROBES: Dict[str, Callable[[], Callable[[], int]]] = {
    "sim.core.probe_events_per_s": _events,
    "sim.resources.probe_acquires_per_s": _acquires,
    "sim.network.probe_rpcs_per_s": _rpcs,
    "kvstore.probe_memkv_ops_per_s": _memkv,
    "kvstore.probe_lsm_ops_per_s": _lsm,
    "kvstore.probe_dht_lookups_per_s": _dht,
    "dfs.probe_namespace_ops_per_s": _namespace,
    "dfs.probe_normalize_per_s": _normalize,
    "mq.probe_msgs_per_s": _mq,
}


def run_probes() -> Dict[str, float]:
    rates = {}
    for name, prepare in PROBES.items():
        work = prepare()
        start = time.perf_counter()
        done = work()
        rates[name] = done / (time.perf_counter() - start)
    return rates
