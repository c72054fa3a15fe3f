"""Helpers shared by the kernel tests."""


def pending(env):
    """Every entry ``env`` has yet to run — the heap's and the
    same-instant lane's together — as ``(time, key, fn, arg)`` tuples in
    the order ``run`` takes them (keys are unique, so ``fn`` and ``arg``
    are never compared)."""
    return sorted([*env._heap, *env._lane])


def hop(net, src, dst, nbytes):
    """One message from ``src`` to ``dst``, as a generator to ``yield
    from``: the steps of ``Network`` driven the way ``Service.request``
    drives each of its two hops."""
    t, mark, ctx = net.depart(src, dst, nbytes)
    try:
        yield (t,)
        if src is not dst:
            yield (net.receive(src, dst, mark),)
        net.deliver(src, dst, mark)
    finally:
        if ctx is not None:
            net.end_span(ctx)
