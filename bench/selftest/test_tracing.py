"""Self-test of the tracer's accounting: leaf-wrapper cost comes out of the right spans.

    python3 -m pytest -q bench/selftest
"""

from __future__ import annotations

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402

if run.import_program() is None:
    raise RuntimeError(f"cannot import uavcharge from {run.SRC}")

import tracing  # noqa: E402


def test_leaf_cost_is_taken_out_of_the_enclosing_span_and_the_tally():
    # [name, start, end, parent, run_id, leaves {name: [count, seconds]}, cells]
    spans = [
        ["cli.simulate", 0.0, 10.0, None, 0, {}, 0],
        ["simengine.run", 1.0, 9.0, 0, 0, {"matching.pair_value": [100, 2.0]}, 0],
    ]
    stats = tracing.layer_stats(spans, 0, len(spans), leaf_cost=(0.01, 0.005))
    assert stats["self:matching.pair_value"] == pytest.approx(2.0 - 100 * 0.005)
    assert stats["self:simengine.run"] == pytest.approx(8.0 - 2.0 - 100 * 0.01)
    assert stats["self:cli.simulate"] == pytest.approx(2.0)
    assert stats["self:trace.leaf_overhead"] == pytest.approx(100 * 0.015)
    assert stats["incl:simengine.run"] == pytest.approx(8.0 - 1.5)
    assert stats["incl:cli.simulate"] == pytest.approx(10.0 - 1.5)
    assert stats["raw:cli.simulate"] == 10.0
    self_total = sum(v for key, v in stats.items() if key.startswith("self:"))
    assert self_total == pytest.approx(10.0)


def test_calibrated_leaf_cost_is_positive_and_small():
    outside, inside = tracing.Tracer().leaf_cost
    assert 0.0 < outside + inside < 1e-4
