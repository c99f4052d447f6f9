"""Self-test of the benchmark's output check: real outputs pass, perturbed ones fail.

    python3 -m pytest -q bench/selftest

Runs scenario 0 of the ``default`` workload once and checks it against
the committed reference, then perturbs copies of the outputs.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402  (imports the benchmark, which pins BLAS threads)

if run.import_program() is None:
    raise RuntimeError(f"cannot import uavcharge from {run.SRC}")

import check  # noqa: E402


@pytest.fixture(scope="module")
def recorded():
    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(run.ROOT, ".bench_work"))
    try:
        scenario = run.prepare("default", 0, work)
        out = os.path.join(work, "out")
        assert run.simulate(scenario, out) == 0
        outputs = check.read_outputs(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference = run.load_reference(run.DEFAULT_REFERENCE)["workloads"]["default"]["0"]
    return scenario, outputs, reference


def reference_problems(scenario, outputs, reference) -> list[str]:
    return check.compare(reference, check.digest(outputs, scenario.slots_per_unit))


def problems(scenario, outputs, reference) -> list[str]:
    return check.invariants(outputs, scenario.initial, scenario.slots_per_unit) + reference_problems(
        scenario, outputs, reference
    )


def with_column(outputs: dict, table: str, column: str, edit) -> dict:
    """A copy of ``outputs`` with ``edit`` applied to a copy of one column."""
    values = outputs[table][column].copy()
    edit(values)
    return {**outputs, table: {**outputs[table], column: values}}


def scaled(value, factor: float):
    """``value`` times ``factor``, kept as a string if it was read as one."""
    return repr(float(value) * factor) if isinstance(value, str) else value * factor


def stage2_rows(outputs: dict) -> list[int]:
    return [k for k, stage in enumerate(outputs["matchings"]["stage"]) if stage == "2"]


def test_unperturbed_outputs_pass(recorded):
    assert problems(*recorded) == []


def test_last_ulp_difference_passes(recorded):
    scenario, outputs, reference = recorded
    k = stage2_rows(outputs)[0]

    def nudge(values):
        values[k] = repr(math.nextafter(float(values[k]), math.inf))  # one ulp up

    assert problems(scenario, with_column(outputs, "matchings", "transfer_j", nudge), reference) == []


def test_swapped_stage2_pair_fails(recorded):
    scenario, outputs, reference = recorded
    rows = stage2_rows(outputs)
    units = outputs["matchings"]["unit_time"]
    a, b = next((a, b) for a, b in zip(rows, rows[1:]) if units[a] == units[b])

    def swap(values):
        values[a], values[b] = values[b], values[a]

    assert reference_problems(scenario, with_column(outputs, "matchings", "charger_id", swap), reference)


@pytest.mark.parametrize("table,column", [("matchings", "transfer_j"), ("snapshots", "travel_spent_j")])
def test_joule_value_off_by_1e6_relative_fails(recorded, table, column):
    scenario, outputs, reference = recorded
    rows = stage2_rows(outputs) if table == "matchings" else range(outputs[table]["rows"])
    k = next(k for k in rows if float(outputs[table][column][k]) > 0.0)

    def perturb(values):
        values[k] = scaled(values[k], 1.0 + 1e-6)

    # caught by the reference comparison alone, not only by the energy balance
    assert reference_problems(scenario, with_column(outputs, table, column, perturb), reference)
