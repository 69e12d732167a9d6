"""Spans around the public functions of every polamp module, from outside it.

:func:`install` wraps each public module-level function of each layer and
puts the wrapper wherever a polamp module holds a reference to the
original: module attributes (``verify``, ``operators``, ``limits`` and
``cli`` import functions by name), dispatch dicts such as
``AMP_KERNELS``, and tuples such as ``verify.ALL_SUITES``. One wrapper per
function keeps identity checks (``suite is suite_...``) true.

Spans live in memory in typed arrays and are reduced only when the run
ends, so the traced ops do no I/O and no bookkeeping beyond the appends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array
from collections import defaultdict

import numpy as np

#: The modules of ``src/polamp``, in dependency order.
LAYERS = (
    "directions",
    "amplitudes",
    "operators",
    "limits",
    "closedforms",
    "simulate",
    "scenario",
    "verify",
    "cli",
)

#: Layers whose calls also count computed lanes (elements of the broadcast
#: numeric arguments; 1 for a scalar or label call).
LANE_LAYERS = ("amplitudes", "operators", "closedforms")

#: Per-sequence helpers, called about 2M times per 16-stage op: a span each
#: would swamp the op, so their time stays in their caller's self time.
UNTRACED = {"sequence_to_index", "index_to_sequence", "sequence_to_str", "str_to_sequence"}

#: One Philox double (8 B) and one int64 index (8 B) per trial in a block.
SAMPLE_BYTES_PER_TRIAL = 16


def _lanes(args, kwargs) -> int:
    values = [*args, *kwargs.values()]
    if not any(isinstance(v, np.ndarray) for v in values):
        return 1
    shapes = [np.shape(v) for v in values if isinstance(v, (np.ndarray, np.generic, float, int))]
    return math.prod(np.broadcast_shapes(*shapes))


class Tracer:
    """Records spans (name, start, end, parent, op id) and per-op counters."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._restore: list = []

    def _wrap(self, layer: str, fn):
        nid = len(self.names)
        self.names.append((layer, fn.__name__))
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, stack, clock = self.start, self.end, self.stack, time.perf_counter
        count = self._counter(layer, fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if count is not None:
                count(self.counts[self.op], args, kwargs)
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return span

    @staticmethod
    def _counter(layer: str, fn):
        if layer in LANE_LAYERS:
            key = f"{layer}.lanes"

            def lanes(counts, args, kwargs):
                counts[key] += _lanes(args, kwargs)

            return lanes
        if (layer, fn.__name__) == ("simulate", "sample"):
            signature = inspect.signature(fn)

            def sample(counts, args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                trials = bound.arguments["trials"]
                block = min(bound.arguments["block_size"] or trials, trials)
                counts["simulate.trials"] += trials
                counts["simulate.sample_bytes"] = max(
                    counts["simulate.sample_bytes"], SAMPLE_BYTES_PER_TRIAL * block
                )

            return sample
        if (layer, fn.__name__) == ("simulate", "exact_distribution"):
            signature = inspect.signature(fn)

            def exact(counts, args, kwargs):
                scenario = signature.bind(*args, **kwargs).arguments["scenario"]
                counts["simulate.sequences"] += 2 ** len(scenario.stages)

            return exact
        return None

    def install(self) -> None:
        """Put a span wrapper in place of every public function of every layer."""
        import polamp

        modules = [polamp] + [importlib.import_module(f"polamp.{m}") for m in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[obj] = self._wrap(layer, obj)

        def swap(value):
            return wrappers.get(value, value) if inspect.isfunction(value) else value

        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((setattr, module, name, obj))
                    setattr(module, name, wrappers[obj])
                elif isinstance(obj, dict) and any(swap(v) is not v for v in obj.values()):
                    self._restore.append((dict.update, obj, dict(obj)))
                    obj.update({k: swap(v) for k, v in obj.items()})
                elif isinstance(obj, tuple) and any(swap(v) is not v for v in obj):
                    self._restore.append((setattr, module, name, obj))
                    setattr(module, name, tuple(swap(v) for v in obj))

    def uninstall(self) -> None:
        """Put every original reference back."""
        while self._restore:
            action, *args = self._restore.pop()
            action(*args)

    def reduce(self, ops: int) -> dict:
        """Per-op totals over the traced ops ``0 .. ops-1``.

        Returns ``{key: array of per-op values}`` for the keys
        ``<layer>.calls``, ``<layer>.self_s``, ``<layer>.<function>.total_s`` (the
        summed inclusive duration of that function's spans) and every counter.
        Self time is a span's duration minus the durations of its child
        spans; one thread runs them, so children never overlap.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op_id = np.frombuffer(self.op_id, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = len(duration)
        nested = parent >= 0
        self_time = duration - np.bincount(parent[nested], weights=duration[nested], minlength=n)

        keep = (op_id >= 0) & (op_id < ops)
        layer_of = np.array([LAYERS.index(layer) for layer, _ in self.names] or [0])
        layer = layer_of[name_id[keep]]
        op = op_id[keep]

        def per_op(index, size, weights=None):
            flat = np.bincount(op * size + index, weights=weights, minlength=ops * size)
            return flat.reshape(ops, size).T

        out = {}
        calls = per_op(layer, len(LAYERS))
        busy = per_op(layer, len(LAYERS), self_time[keep])
        for i, name in enumerate(LAYERS):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = busy[i]
        totals = per_op(name_id[keep], max(len(self.names), 1), duration[keep])
        for i, (layer_name, fn) in enumerate(self.names):
            out[f"{layer_name}.{fn}.total_s"] = totals[i]
        for key in {key for counts in self.counts.values() for key in counts}:
            out[key] = np.array([self.counts.get(i, {}).get(key, 0.0) for i in range(ops)])
        return out

    def spans(self):
        """Every recorded span as (op, layer, function, parent index, start, end)."""
        for i, nid in enumerate(self.name_id):
            layer, fn = self.names[nid]
            yield self.op_id[i], layer, fn, self.parent[i], self.start[i], self.end[i]
