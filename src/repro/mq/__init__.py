"""Publisher/subscriber message queues (ZeroMQ-equivalent).

Pacon's commit queue (paper Fig. 5) uses the publisher-subscriber model:
every client in a consistent region is a publisher, and every node runs a
commit process that subscribes to the operations published on that node.
This package provides that substrate: per-node FIFO queues with blocking
subscription and a group abstraction holding one queue per node of a
region.
"""

from repro.mq.queue import MessageQueue, QueueClosed, QueueGroup

__all__ = ["MessageQueue", "QueueClosed", "QueueGroup"]
