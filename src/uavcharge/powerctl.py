"""Per-drone transmit-power controller built on a queue-drift trade-off.

Each MBS drone buffers untransmitted bits in a queue and, once per slot,
picks a transmit power from a finite action set.  The controller
minimizes ``V * energy(power) - backlog * service(power)``: with an empty
queue it transmits at the cheapest level, and as backlog grows it slides
up the power ladder to keep the queue bounded.  Controllers share no
state, so ``run_queues`` steps a whole fleet's queues at once as arrays;
``dpp_decide`` and ``queue_step`` are the scalar reference it is tested
against.

The energy and service models are the simplest physically sensible pair:
transmission energy is power times slot length, and the per-slot service
is a Shannon-style rate ``slot * bandwidth * log2(1 + power * gain /
noise)``, which is concave and strictly increasing in power.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, TypeAlias

import numpy as np

from .core import InvalidParameterError

PowerAction: TypeAlias = float

DEFAULT_ACTIONS_W = tuple(float(w) for w in range(0, 161, 10))


@dataclass
class QueueState:
    """Backlog of untransmitted bits at one MBS drone."""

    backlog: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.backlog) or self.backlog < 0:
            raise InvalidParameterError(f"backlog must be finite and >= 0, got {self.backlog}")


@dataclass(frozen=True)
class ChannelModel:
    """Static link parameters for the service-rate model."""

    bandwidth_hz: float = 1e5
    gain: float = 1.0
    noise_w: float = 10.0

    def __post_init__(self) -> None:
        if self.bandwidth_hz <= 0 or self.noise_w <= 0:
            raise InvalidParameterError("bandwidth and noise must be > 0")
        if self.gain <= 0:
            raise InvalidParameterError("gain must be > 0")


@dataclass(frozen=True)
class ArrivalModel:
    """Per-slot traffic arriving at a drone's queue, in bits.

    ``constant`` yields ``mean_bits`` every slot; ``random`` draws
    uniformly from [0, 2 * mean_bits] using the caller's generator.
    """

    kind: str = "constant"
    mean_bits: float = 2e5

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "random"):
            raise InvalidParameterError(f"unknown arrival kind {self.kind!r}")
        if self.mean_bits < 0:
            raise InvalidParameterError("mean_bits must be >= 0")


@dataclass(frozen=True)
class DppConfig:
    """Controller configuration: trade-off weight, actions, link, traffic."""

    v: float = 2.555e9
    action_set: tuple[PowerAction, ...] = DEFAULT_ACTIONS_W
    slot_s: float = 1.0
    channel: ChannelModel = ChannelModel()
    arrival: ArrivalModel = ArrivalModel()

    def __post_init__(self) -> None:
        if self.v < 0:
            raise InvalidParameterError("v must be >= 0")
        if not self.action_set:
            raise InvalidParameterError("action_set must be non-empty")
        if any(a < 0 for a in self.action_set):
            raise InvalidParameterError("actions must be >= 0")
        if len(set(self.action_set)) != len(self.action_set):
            raise InvalidParameterError("actions must be distinct")
        if list(self.action_set) != sorted(self.action_set):
            raise InvalidParameterError("action_set must be sorted ascending")
        if self.slot_s <= 0:
            raise InvalidParameterError("slot_s must be > 0")


def tx_energy(alpha: PowerAction, slot_s: float) -> float:
    """Energy drained by transmitting at ``alpha`` watts for one slot."""
    if alpha < 0 or slot_s < 0:
        raise InvalidParameterError("power and slot length must be >= 0")
    return alpha * slot_s


def service_rate(alpha: PowerAction, channel: ChannelModel, slot_s: float) -> float:
    """Bits served in one slot at transmit power ``alpha``."""
    return slot_s * channel.bandwidth_hz * math.log2(1.0 + alpha * channel.gain / channel.noise_w)


@lru_cache(maxsize=None)
def _action_table(cfg: DppConfig) -> tuple[tuple[PowerAction, float, float], ...]:
    # (power, energy, service) per action; cached because cfg is frozen.
    return tuple(
        (a, tx_energy(a, cfg.slot_s), service_rate(a, cfg.channel, cfg.slot_s))
        for a in cfg.action_set
    )


def dpp_objective(backlog: float, alpha: PowerAction, cfg: DppConfig) -> float:
    """Score of one action: weighted energy cost minus backlog-weighted service."""
    return cfg.v * tx_energy(alpha, cfg.slot_s) - backlog * service_rate(alpha, cfg.channel, cfg.slot_s)


def dpp_decide(backlog: float, cfg: DppConfig) -> PowerAction:
    """Pick the action minimizing the objective; ties go to lower power."""
    best_alpha = None
    best_score = math.inf
    for alpha, energy, service in _action_table(cfg):
        score = cfg.v * energy - backlog * service
        if score < best_score:
            best_score = score
            best_alpha = alpha
    return best_alpha


def queue_step(backlog: float, arrival: float, departure: float) -> float:
    """One slot of queue dynamics: serve the waiting bits, then append arrivals."""
    if arrival < 0 or departure < 0:
        raise InvalidParameterError("arrival and departure must be >= 0")
    return max(backlog - departure, 0.0) + arrival


def baseline_policy(kind: str, cfg: DppConfig) -> PowerAction:
    """Fixed-power comparison policies.

    ``max_pa`` always transmits at the top power level; ``min_pa`` at the
    smallest strictly positive level (so it still transmits something).
    """
    if kind == "max_pa":
        return cfg.action_set[-1]
    if kind == "min_pa":
        for alpha in cfg.action_set:
            if alpha > 0:
                return alpha
        return cfg.action_set[-1]
    raise InvalidParameterError(f"unknown baseline policy {kind!r}")


def saturation_backlog(cfg: DppConfig) -> float:
    """Backlog above which the controller always picks the max-rate action.

    For every lower-power action the crossover point is
    ``v * (E_max - E_a) / (b_max - b_a)``; above the largest of these the
    max-rate action strictly wins.
    """
    table = _action_table(cfg)
    _, e_max, b_max = table[-1]
    threshold = 0.0
    for _, energy, service in table[:-1]:
        if service < b_max:
            threshold = max(threshold, cfg.v * (e_max - energy) / (b_max - service))
    return threshold


def arrival_block(model: ArrivalModel, rngs: list[random.Random], slots: int) -> np.ndarray:
    """Arrivals for ``slots`` slots of ``len(rngs)`` queues, shape [slots, queues].

    Queue ``k`` draws its slots in order from its own generator ``rngs[k]``,
    so the block equals one draw per queue per slot in any interleaving.
    """
    if model.kind == "constant":
        return np.full((slots, len(rngs)), model.mean_bits)
    high = 2.0 * model.mean_bits
    return np.array([[rng.uniform(0.0, high) for _ in range(slots)] for rng in rngs]).reshape(len(rngs), slots).T


class QueueRun(NamedTuple):
    """Kernel output for T slots of n queues."""

    backlog: np.ndarray  # [T, n] backlog observed at each slot start
    action: np.ndarray  # [T, n] index into cfg.action_set
    final: np.ndarray  # [n] backlog after the last slot
    tx: np.ndarray  # [n] transmit energy summed over the slots


def action_arrays(cfg: DppConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(power, energy, service) per action, as numpy arrays of the scalar values."""
    return tuple(np.array(_action_table(cfg), dtype=float).T)


def run_queues(backlog0: list[float], arrivals: np.ndarray, cfg: DppConfig, policy: str = "dpp") -> QueueRun:
    """Run n independent queues for T slots (``arrivals`` is [T, n]) under one power policy.

    ``policy`` is ``dpp`` or a ``baseline_policy`` kind.  Each dpp slot
    scores every action for every queue at once and takes the first
    minimum: the same floating-point operations and tie-break as
    ``dpp_decide``, so every choice equals it.  Deciding by the backlog
    breakpoints of the score envelope would not: a backlog-vs-threshold
    comparison rounds differently from a score comparison near a
    crossover.  The queue step is ``queue_step``'s, and transmit energy is
    summed slot by slot, in the order a scalar loop adds it.
    """
    _, energy, service = action_arrays(cfg)
    slots, n = arrivals.shape
    backlog = np.empty((slots, n))
    action = np.empty((slots, n), dtype=np.intp)
    b = np.array(backlog0, dtype=float).reshape(n)
    tx = np.zeros(n)
    fixed = None if policy == "dpp" else cfg.action_set.index(baseline_policy(policy, cfg))
    cost = cfg.v * energy
    for t in range(slots):
        backlog[t] = b
        idx = fixed if fixed is not None else (cost - b[:, None] * service).argmin(axis=1)
        action[t] = idx
        b = np.maximum(b - service[idx], 0.0) + arrivals[t]
        tx = tx + energy[idx]
    return QueueRun(backlog, action, b, tx)
