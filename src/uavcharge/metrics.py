"""Trace reductions: residual-energy statistics and queue-stability checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import InvalidParameterError
from .simengine import SimResult, UnitSnapshot


@dataclass
class ResidualProfile:
    """Residual energies of one role as percentages, sorted ascending.

    Mean and standard deviation are population statistics: the roster is
    a census, not a sample.
    """

    values: list[float]
    mean: float
    stddev: float


@dataclass
class StabilityVerdict:
    verdict: str  # "stable" or "diverging"
    ratio: float


def residual_stats(snapshot: UnitSnapshot, role: str) -> ResidualProfile:
    """Residual-energy profile of chargers or MBS drones in one snapshot."""
    if role == "charger":
        energy = snapshot.charger_energy
    elif role == "mbs":
        energy = snapshot.mbs_energy
    else:
        raise InvalidParameterError(f"role must be 'charger' or 'mbs', got {role!r}")
    if not energy:
        raise InvalidParameterError(f"snapshot has no {role} entities")
    values = sorted(100.0 * residual / capacity for residual, capacity in energy.values())
    mean = sum(values) / len(values)
    stddev = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
    return ResidualProfile(values=values, mean=mean, stddev=stddev)


def queue_trace(result: SimResult, drone_id: str) -> list[tuple[int, float]]:
    """Backlog time series (slot, bits) for one MBS drone."""
    if drone_id not in result.queue_traces:
        raise KeyError(drone_id)
    trace = result.queue_traces[drone_id]
    return list(zip(trace.slot.tolist(), trace.backlog.tolist()))


def stability_verdict(
    backlogs: list[float], split: float = 0.25, threshold: float = 1.10
) -> StabilityVerdict:
    """Finite-horizon stability proxy for a backlog trace.

    Compares the mean backlog over the trailing ``split`` fraction of the
    trace against the window immediately before it; a ratio above
    ``threshold`` reads as diverging.  Two empty windows (an all-zero
    tail) count as ratio 1.0, i.e. stable.
    """
    if len(backlogs) < 8:
        raise InvalidParameterError(f"trace too short for a verdict: {len(backlogs)} < 8")
    if not 0 < split <= 0.5:
        raise InvalidParameterError(f"split must be in (0, 0.5], got {split}")
    n = len(backlogs)
    width = max(int(n * split), 1)
    last = backlogs[n - width:]
    prev = backlogs[n - 2 * width: n - width]
    last_mean = sum(last) / len(last)
    prev_mean = sum(prev) / len(prev)
    if prev_mean == 0.0:
        ratio = 1.0 if last_mean == 0.0 else math.inf
    else:
        ratio = last_mean / prev_mean
    return StabilityVerdict(verdict="diverging" if ratio > threshold else "stable", ratio=ratio)
