"""The thread pool that verify and simulate map their blocks through."""

import threading
import time

from polamp import _pool
from polamp._pool import map_in_order


def test_results_come_back_in_item_order(monkeypatch):
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)

    def late_first(i, j):
        time.sleep(0.001 * (20 - i))  # early items finish last
        return i * j

    assert list(map_in_order(late_first, range(20), range(100, 120))) == [
        i * j for i, j in zip(range(20), range(100, 120))
    ]


def test_no_items_give_no_results():
    assert list(map_in_order(lambda x: x, [])) == []


def test_one_thread_per_available_cpu(monkeypatch):
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    barrier = threading.Barrier(3, timeout=10)

    def together(i):
        barrier.wait()  # passes only while three calls run at once
        return threading.get_ident()

    assert len(set(map_in_order(together, range(9)))) == 3


def test_one_available_cpu_runs_every_call_on_one_thread(monkeypatch):
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert len(set(map_in_order(lambda i: threading.get_ident(), range(9)))) == 1


def test_at_most_two_calls_per_thread_run_ahead(monkeypatch):
    # the results held at once are bounded by the thread count, not the item count
    monkeypatch.setattr(_pool.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    results = map_in_order(lambda i: started.append(i) or i, range(100))
    assert next(results) == 0
    deadline = time.monotonic() + 10
    while len(started) < 5 and time.monotonic() < deadline:
        time.sleep(0.001)
    time.sleep(0.05)
    assert sorted(started) == [0, 1, 2, 3, 4]  # four at the start, one per result taken
    assert list(results) == list(range(1, 100))
