"""Helpers shared by the kernel tests."""


def pending(env):
    """Every entry ``env`` has yet to run — the heap's and the
    same-instant lane's together — as ``(time, key, fn, arg)`` tuples in
    the order ``run`` takes them (keys are unique, so ``fn`` and ``arg``
    are never compared)."""
    return sorted([*env._heap, *env._lane])
