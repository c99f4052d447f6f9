"""Outside-in span tracing of one `simulate` call, from the benchmark's side.

Public functions are wrapped where the program looks them up (module or
class attributes), so no program code changes.  Each span records name,
start, end, parent span index, run id and, for hot leaf functions that
run tens of thousands of times per call, a per-span (count, seconds)
tally instead of one span per call.  Spans are kept in memory; `dump`
writes them out once the benchmark ends.

A leaf wrapper's own cost (the extra Python call, two clock reads, the
tally update) would otherwise land in the self time of the enclosing
span.  The tracer measures that cost once when it is made, and
`layer_stats` takes it out of the enclosing span and the leaf tally and
reports it as ``self:trace.leaf_overhead``.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

from uavcharge import cli, matching, powerctl, simengine

# (owner, attribute, span name)
SPANS = (
    (cli, "load_scenario", "cli.load_scenario"),
    (simengine.ScenarioSpec, "build", "simengine.build"),
    (simengine, "run", "simengine.run"),
    (simengine, "step_unit_time", "simengine.step_unit_time"),
    (matching, "stage1_match", "matching.stage1"),
    (matching, "stage2_match", "matching.stage2"),
    (matching, "allocate_transfers", "matching.alloc"),
    (matching, "linear_sum_assignment", "matching.assignment"),
)
LEAVES = (
    (matching, "pair_value", "matching.pair_value"),
    (powerctl, "dpp_decide", "powerctl.decide"),
    (powerctl, "baseline_policy", "powerctl.decide"),
)


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent, run_id, leaves {name: [count, seconds]}, cells]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0
        self.leaf_cost = self._leaf_cost()

    def _leaf_cost(self, calls: int = 50000, trials: int = 7) -> tuple[float, float]:
        """Seconds one leaf-wrapper call adds (outside, inside) its own tally; medians over trials.

        Outside: wrapper time not in the tally, less the bare loop.  Inside:
        tally less a direct call of the same empty function.
        """
        def empty(*args):
            return None

        wrapped = self._leaf_wrapper("calibration", empty)
        args = (None,) * 4  # pair_value takes 5 positional arguments, dpp_decide 2
        outside, inside = [], []
        for _ in range(trials):
            span = ["calibration", 0.0, 0.0, None, -1, {}, 0]
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped(*args)
            t1 = time.perf_counter()
            for _ in range(calls):
                empty(*args)
            t2 = time.perf_counter()
            for _ in range(calls):
                pass
            t3 = time.perf_counter()
            self._stack.pop()
            self.spans.pop()
            tally = span[5]["calibration"][1]
            outside.append((t1 - t0 - tally - (t3 - t2)) / calls)
            inside.append((tally - (t2 - t1 - (t3 - t2))) / calls)
        return statistics.median(outside), statistics.median(inside)

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.run_id, {}, 0]
        if name == "matching.assignment":
            rows, cols = args[0].shape
            span[6] = rows * cols
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[2] = time.perf_counter()

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally = self.spans[self._stack[-1]][5].setdefault(name, [0, 0.0])
                tally[0] += 1
                tally[1] += time.perf_counter() - start
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name in SPANS:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._span_wrapper(name, getattr(owner, attr)))
            for owner, attr, name in LEAVES:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._leaf_wrapper(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "run_id", "leaves", "cells")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_stats(spans: list[list], lo: int, hi: int, leaf_cost: tuple[float, float]) -> dict:
    """Per-name totals over the spans ``spans[lo:hi]`` of one traced call.

    ``self:<name>`` is span time minus child spans, leaf tallies and the
    leaf wrappers' own cost (``leaf_cost``, per call outside and inside the
    tally); that cost is totalled as ``self:trace.leaf_overhead``.  So the
    self times of one call add up to its root span, and with the leaf
    overhead left out they estimate the untraced call.  ``incl:<name>`` is
    span time less the leaf overhead inside it; ``raw:<name>`` is span time.
    """
    outside, inside = leaf_cost
    child: dict[int, float] = {}
    overhead: dict[int, float] = {}
    for k in range(hi - 1, lo - 1, -1):  # children come after their parent
        _name, start, end, parent, _run, leaves, _cells = spans[k]
        calls = sum(count for count, _ in leaves.values())
        child[k] = child.get(k, 0.0) + sum(t for _, t in leaves.values()) + calls * outside
        overhead[k] = overhead.get(k, 0.0) + calls * (outside + inside)
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
            overhead[parent] = overhead.get(parent, 0.0) + overhead[k]
    totals: dict = {"unit_ms": []}
    for k in range(lo, hi):
        name, start, end, _parent, _run, leaves, cells = spans[k]
        for key, value in ((f"self:{name}", end - start - child[k]), (f"incl:{name}", end - start - overhead[k]),
                           (f"raw:{name}", end - start), (f"calls:{name}", 1), (f"cells:{name}", cells)):
            totals[key] = totals.get(key, 0) + value
        for leaf, (count, seconds) in leaves.items():
            totals[f"self:{leaf}"] = totals.get(f"self:{leaf}", 0.0) + seconds - count * inside
            totals[f"calls:{leaf}"] = totals.get(f"calls:{leaf}", 0) + count
            totals["self:trace.leaf_overhead"] = (totals.get("self:trace.leaf_overhead", 0.0)
                                                  + count * (outside + inside))
        if name == "simengine.step_unit_time":
            totals["unit_ms"].append(1e3 * (end - start - overhead[k]))
    return totals


def quantile(values: list[float], q: float) -> float:
    """Inclusive-method quantile, ``q`` in (0, 1) at percent resolution."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
