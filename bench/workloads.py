"""Benchmark workloads: one scenario spec builder per name, taking the scenario seed.

Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
"""

from __future__ import annotations

import dataclasses

from uavcharge import simengine
from uavcharge.powerctl import ArrivalModel


def _scale_spec(seed: int) -> simengine.ScenarioSpec:
    return dataclasses.replace(
        simengine.default_spec(seed),
        mbs_count=400,
        charger_count=800,
        horizon=1,
        arrival=ArrivalModel("random", ArrivalModel().mean_bits),
    )


WORKLOADS = {
    "default": simengine.default_spec,
    "dominance": simengine.mbs_dominance_spec,
    "scale": _scale_spec,
}


def spec_for(workload: str, scenario_seed: int) -> simengine.ScenarioSpec:
    return WORKLOADS[workload](scenario_seed)
