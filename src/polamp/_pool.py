"""One thread per available CPU for independent blocks of numpy work.

``verify`` maps the lane blocks of all its suites and errata tables as one
stream per run, and ``simulate`` maps ``sample`` over trial blocks, through
:func:`map_in_order`. numpy releases the GIL in its ufunc loops, in ``eigh``,
in PCG64's ``random``, in Philox's ``random_raw``, in ``sort`` and in
``searchsorted``, so the blocks run in parallel; the results come back in
order, so a caller's reduction does not depend on the thread count. With one
thread's worth of work (one item, or one available CPU), the calls run on the
caller's thread and no pool starts.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import islice


def map_in_order(fn, items):
    """Yield ``fn(item)`` for each of ``items``, a sequence, in order.

    The calls run on ``min(available CPUs, len(items))`` threads; one
    thread means the caller's, which makes each call as its result is taken.
    At most two calls per thread are submitted ahead of the result being
    yielded, so the results held at once are bounded by the thread count,
    not by the number of items.
    """
    n = len(items)
    if not n:
        return
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cpus or 1, n)
    if workers == 1:
        yield from map(fn, items)
        return
    # imported here, so that one-block runs start no slower; ``import polamp`` loads
    # neither this module nor numpy (see ``polamp/__init__``)
    from concurrent.futures import ThreadPoolExecutor

    items = iter(items)
    with ThreadPoolExecutor(workers) as pool:
        pending = deque(pool.submit(fn, item) for item in islice(items, 2 * workers))
        while pending:
            result = pending.popleft().result()
            # refill the window with the next item, if any
            pending.extend(pool.submit(fn, item) for item in islice(items, 1))
            yield result
