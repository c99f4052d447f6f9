"""Unit-time orchestration of charging, energy transfer, and transmission.

Each unit time runs three phases in order: (1) towers charge their
matched charging drones, (2) charging drones fly to and charge their
matched MBS drones, (3) every live MBS drone runs its per-slot transmit
power controller while paying hover and transmission energy.  MBS drones
that hit zero energy are marked dropped at the unit-time boundary and
never appear in later matchings or queue traces.

All randomness flows from the scenario seed through named substreams
(one per entity and purpose), so runs are reproducible bit-for-bit and
entity rosters are prefix-stable when only a count changes.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import matching, powerctl
from .core import (
    ChargerDrone,
    InvalidParameterError,
    MbsDrone,
    Position,
    TimingConfig,
    Tower,
    apply_charge,
    distance,
    tower_charge_amount,
    travel_energy,
)
from .matching import VALUE_EPS_J, Stage1Assignment, Stage2Assignment, baseline_match
from .powerctl import ArrivalModel, ChannelModel, DppConfig, QueueState

STAGE_POLICIES = ("proposed", "random", "greedy_best", "greedy_worst")
POWER_POLICIES = ("dpp", "max_pa", "min_pa")

MAP_WIDTH_M = 1299.0
MAP_HEIGHT_M = 750.0
ALTITUDE_M = 100.0


@dataclass
class Scenario:
    """Concrete run configuration: entity rosters plus all knobs."""

    towers: list[Tower]
    chargers: list[ChargerDrone]
    mbs_drones: list[MbsDrone]
    timing: TimingConfig = TimingConfig()
    dpp: DppConfig = DppConfig()
    matching_mode: str = "allocate"
    stage1_policy: str = "proposed"
    stage2_policy: str = "proposed"
    power_policy: str = "dpp"
    horizon: int = 30
    seed: int = 0
    value_eps: float = VALUE_EPS_J

    def validate(self) -> None:
        if self.horizon < 1:
            raise InvalidParameterError(f"horizon must be >= 1, got {self.horizon}")
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")
        if self.matching_mode not in ("literal", "allocate"):
            raise InvalidParameterError(f"unknown matching mode {self.matching_mode!r}")
        if self.stage1_policy not in STAGE_POLICIES or self.stage2_policy not in STAGE_POLICIES:
            raise InvalidParameterError("stage policies must be one of " + ", ".join(STAGE_POLICIES))
        if self.power_policy not in POWER_POLICIES:
            raise InvalidParameterError("power policy must be one of " + ", ".join(POWER_POLICIES))
        if self.value_eps <= 0:
            raise InvalidParameterError(f"value_eps must be > 0, got {self.value_eps}")
        if not self.towers and not self.chargers and not self.mbs_drones:
            raise InvalidParameterError("scenario has no entities at all")
        ids = [e.id for e in (*self.towers, *self.chargers, *self.mbs_drones)]
        if len(set(ids)) != len(ids):
            raise InvalidParameterError("entity ids must be unique across the scenario")


@dataclass
class ChargerFlows:
    """Per-unit energy accounting for one charging drone."""

    tower_credit: float = 0.0
    transfers_sent: float = 0.0
    travel_spent: float = 0.0


@dataclass
class MbsFlows:
    """Per-unit energy accounting for one MBS drone."""

    received: float = 0.0
    hover_drain: float = 0.0
    tx_drain: float = 0.0


@dataclass
class QueueTrace:
    """One drone's controller trace, one numpy column per field: slot,
    backlog observed at slot start, then the action's power and flows."""

    slot: np.ndarray
    backlog: np.ndarray
    power: np.ndarray
    arrival: np.ndarray
    service: np.ndarray
    energy: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueueTrace):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))

    @classmethod
    def of(cls, cfg: DppConfig, backlog: np.ndarray, action: np.ndarray, arrival: np.ndarray) -> "QueueTrace":
        """Trace from slot 0 of one queue's kernel columns (action indices into ``cfg``)."""
        power, energy, service = powerctl.action_arrays(cfg)
        return cls(np.arange(len(action)), backlog, power[action], arrival, service[action], energy[action])


@dataclass
class UnitSnapshot:
    """State of the network after one unit time."""

    unit: int
    stage1_pairs: list[tuple[str, str]]
    stage2_pairs: list[tuple[str, str, float]]
    charger_energy: dict[str, tuple[float, float]]
    mbs_energy: dict[str, tuple[float, float]]
    charger_flows: dict[str, ChargerFlows]
    mbs_flows: dict[str, MbsFlows]
    dropped: list[str]


@dataclass
class SimResult:
    """Full trace of one run."""

    seed: int
    horizon: int
    units_run: int
    snapshots: list[UnitSnapshot]
    queue_traces: dict[str, QueueTrace]
    dropped_at: dict[str, int]
    coverage_time: int | None

    @property
    def survived(self) -> bool:
        return self.coverage_time is None


@dataclass
class SimState:
    """Mutable engine state; owns private copies of every entity."""

    scenario: Scenario
    towers: list[Tower]
    chargers: list[ChargerDrone]
    mbs_drones: list[MbsDrone]
    unit: int = 0
    snapshots: list[UnitSnapshot] = field(default_factory=list)
    # per drone, one (backlog, action, arrival) column triple per unit it was live
    queue_parts: dict[str, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = field(default_factory=dict)
    dropped_at: dict[str, int] = field(default_factory=dict)
    rng_stage1: random.Random = field(default_factory=random.Random)
    rng_stage2: random.Random = field(default_factory=random.Random)
    arrival_rngs: dict[str, random.Random] = field(default_factory=dict)

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "SimState":
        seed = scenario.seed
        state = cls(
            scenario=scenario,
            towers=copy.deepcopy(scenario.towers),
            chargers=copy.deepcopy(scenario.chargers),
            mbs_drones=copy.deepcopy(scenario.mbs_drones),
            rng_stage1=random.Random(f"{seed}/baseline/stage1"),
            rng_stage2=random.Random(f"{seed}/baseline/stage2"),
        )
        for m in state.mbs_drones:
            m.queue = QueueState()
            state.queue_parts[m.id] = []
            state.arrival_rngs[m.id] = random.Random(f"{seed}/arrivals/{m.id}")
            if m.residual <= 0 and not m.dropped:
                m.dropped = True
                m.residual = 0.0
                state.dropped_at[m.id] = 0
        return state


def run(scenario: Scenario) -> SimResult:
    """Execute the scenario for its whole horizon (or until all drones drop)."""
    scenario.validate()
    state = SimState.from_scenario(scenario)
    for _ in range(scenario.horizon):
        if state.mbs_drones and all(m.dropped for m in state.mbs_drones):
            break
        step_unit_time(state)
    drop_units = [u for u in state.dropped_at.values()]
    coverage = min(drop_units) if drop_units else None
    return SimResult(
        seed=scenario.seed,
        horizon=scenario.horizon,
        units_run=state.unit,
        snapshots=state.snapshots,
        queue_traces=_queue_traces(state),
        dropped_at=dict(state.dropped_at),
        coverage_time=coverage,
    )


def step_unit_time(state: SimState) -> SimState:
    """Advance the network by one unit time (three phases plus drop check)."""
    scenario = state.scenario
    timing = scenario.timing
    unit = state.unit + 1
    towers = {t.id: t for t in state.towers}
    chargers = {c.id: c for c in state.chargers}
    mbs_drones = {m.id: m for m in state.mbs_drones}
    charger_flows = {c.id: ChargerFlows() for c in state.chargers}
    mbs_flows = {m.id: MbsFlows() for m in state.mbs_drones}

    # Phase 1: towers charge matched charging drones, who fly over first.
    stage1 = _dispatch_stage1(state)
    for tower_id, charger_id in stage1.pairs:
        tower = towers[tower_id]
        charger = chargers[charger_id]
        amount = tower_charge_amount(
            tower.charge_power, tower.efficiency, charger.efficiency,
            timing.tower_phase_s, distance(tower.position, charger.position), charger.speed,
        )
        credited = apply_charge(charger.residual, amount, charger.capacity) - charger.residual
        charger.residual += credited
        charger.position = tower.position
        charger_flows[charger_id].tower_credit += credited

    # Phase 2: charging drones ferry energy to matched MBS drones.
    stage2 = _dispatch_stage2(state)
    for mbs_id, charger_id, transfer in stage2.pairs:
        charger = chargers[charger_id]
        mbs = mbs_drones[mbs_id]
        travel = travel_energy(distance(charger.position, mbs.position), charger.speed, charger.move_power)
        charger.residual -= travel + transfer
        if charger.residual < 0.0:
            if charger.residual < -1e-6:
                raise AssertionError(f"charger {charger_id} overdrawn by {-charger.residual} J")
            charger.residual = 0.0
        charger.position = mbs.position
        delivered = transfer * charger.efficiency * mbs.efficiency
        credited = apply_charge(mbs.residual, delivered, mbs.capacity) - mbs.residual
        mbs.residual += credited
        charger_flows[charger_id].transfers_sent += transfer
        charger_flows[charger_id].travel_spent += travel
        mbs_flows[mbs_id].received += delivered

    # Phase 3: per-slot transmit power control on every live MBS drone, as one kernel call.
    live = [m for m in state.mbs_drones if not m.dropped]
    if live:
        rngs = [state.arrival_rngs[m.id] for m in live]
        arrivals = powerctl.arrival_block(scenario.dpp.arrival, rngs, timing.slots_per_unit)
        queues = powerctl.run_queues([m.queue.backlog for m in live], arrivals, scenario.dpp, scenario.power_policy)
        for k, (mbs, backlog, tx_total) in enumerate(zip(live, queues.final.tolist(), queues.tx.tolist())):
            state.queue_parts[mbs.id].append((queues.backlog[:, k], queues.action[:, k], arrivals[:, k]))
            mbs.queue.backlog = backlog
            hover = mbs.hover_power * timing.unit_s
            mbs.residual -= hover + tx_total
            mbs_flows[mbs.id].hover_drain = hover
            mbs_flows[mbs.id].tx_drain = tx_total

    # Drop detection at the unit-time boundary.
    dropped_now: list[str] = []
    for mbs in state.mbs_drones:
        if not mbs.dropped and mbs.residual <= 0.0:
            mbs.residual = 0.0
            mbs.dropped = True
            state.dropped_at[mbs.id] = unit
            dropped_now.append(mbs.id)

    _check_bounds(state)
    state.snapshots.append(
        UnitSnapshot(
            unit=unit,
            stage1_pairs=list(stage1.pairs),
            stage2_pairs=list(stage2.pairs),
            charger_energy={c.id: (c.residual, c.capacity) for c in state.chargers},
            mbs_energy={m.id: (m.residual, m.capacity) for m in state.mbs_drones},
            charger_flows=charger_flows,
            mbs_flows=mbs_flows,
            dropped=dropped_now,
        )
    )
    state.unit = unit
    return state


def _dispatch_stage1(state: SimState) -> Stage1Assignment:
    if not state.towers or not state.chargers:
        return Stage1Assignment()
    policy = state.scenario.stage1_policy
    if policy == "proposed":
        return matching.stage1_match(state.towers, state.chargers)
    return baseline_match(policy, 1, towers=state.towers, chargers=state.chargers, rng=state.rng_stage1)


def _dispatch_stage2(state: SimState) -> Stage2Assignment:
    live = [m for m in state.mbs_drones if not m.dropped]
    if not state.chargers or not live:
        return Stage2Assignment(mode=state.scenario.matching_mode)
    policy = state.scenario.stage2_policy
    if policy == "proposed":
        return matching.stage2_match(
            state.chargers, live, state.scenario.timing,
            mode=state.scenario.matching_mode, eps=state.scenario.value_eps,
        )
    return baseline_match(
        policy, 2, chargers=state.chargers, mbs_list=live,
        timing=state.scenario.timing, rng=state.rng_stage2, eps=state.scenario.value_eps,
    )


def _queue_traces(state: SimState) -> dict[str, QueueTrace]:
    # A drone is live from unit 1 until it drops, so its parts run from slot 0;
    # the leading empty triple covers drones that never ran a slot.
    cfg = state.scenario.dpp
    empty = (np.empty(0), np.empty(0, dtype=np.intp), np.empty(0))
    return {i: QueueTrace.of(cfg, *map(np.concatenate, zip(empty, *parts))) for i, parts in state.queue_parts.items()}


def _check_bounds(state: SimState) -> None:
    for c in state.chargers:
        if not -1e-9 <= c.residual <= c.capacity + 1e-9:
            raise AssertionError(f"charger {c.id} residual {c.residual} outside [0, {c.capacity}]")
    for m in state.mbs_drones:
        if m.dropped:
            continue
        if not 0.0 <= m.residual <= m.capacity + 1e-9:
            raise AssertionError(f"mbs {m.id} residual {m.residual} outside [0, {m.capacity}]")


def sweep_mbs_count(spec: "ScenarioSpec", counts: list[int]) -> list[tuple[int, int | None]]:
    """Coverage time as a function of the MBS fleet size.

    Reuses the spec's seed for every count, so entity rosters are
    prefix-stable: run k and run k+1 share their first k MBS drones.
    """
    if not counts:
        raise InvalidParameterError("counts must be non-empty")
    if any(c < 1 for c in counts):
        raise InvalidParameterError("counts must be positive")
    if sorted(counts) != list(counts) or len(set(counts)) != len(counts):
        raise InvalidParameterError("counts must be strictly ascending")
    rows: list[tuple[int, int | None]] = []
    for count in counts:
        scenario = replace(spec, mbs_count=count).build()
        rows.append((count, run(scenario).coverage_time))
    return rows


# ---------------------------------------------------------------------------
# Declarative scenario construction.

@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative scenario: counts and knobs, rosters generated from the seed.

    Tower, charger, and MBS positions are drawn uniformly over the map
    (drones at the surveillance altitude, towers on the ground), and
    initial residual energies uniformly in [init_min_frac, init_max_frac]
    of capacity.  Every entity gets its own named random substream, so
    changing one count never perturbs the other entities.
    """

    seed: int = 0
    horizon: int = 30
    map_width_m: float = MAP_WIDTH_M
    map_height_m: float = MAP_HEIGHT_M
    altitude_m: float = ALTITUDE_M
    tower_count: int = 1
    tower_plates: int = 4
    tower_power_w: float = 100.0
    tower_efficiency: float = 0.81
    charger_count: int = 50
    charger_capacity_j: float = 367_696.8
    charger_speed_ms: float = 20.0
    charger_efficiency: float = 0.81
    charger_move_power_w: float = 204.0
    mbs_count: int = 25
    mbs_capacity_j: float = 367_696.8
    mbs_efficiency: float = 0.81
    mbs_plates: int = 1
    mbs_hover_power_w: float = 100.0
    mbs_charge_power_max_w: float = 160.0
    init_min_frac: float = 0.30
    init_max_frac: float = 1.00
    timing: TimingConfig = TimingConfig()
    dpp_v: float | None = None
    dpp_actions: tuple[float, ...] = powerctl.DEFAULT_ACTIONS_W
    channel: ChannelModel = ChannelModel()
    arrival: ArrivalModel = ArrivalModel()
    matching_mode: str = "allocate"
    stage1_policy: str = "proposed"
    stage2_policy: str = "proposed"
    power_policy: str = "dpp"
    value_eps: float = VALUE_EPS_J

    def build(self) -> Scenario:
        seed = self.seed
        towers = [
            Tower(
                f"T{k:02d}",
                self._random_position(f"{seed}/pos/tower/{k}", ground=True),
                plates=self.tower_plates,
                charge_power=self.tower_power_w,
                efficiency=self.tower_efficiency,
            )
            for k in range(self.tower_count)
        ]
        chargers = [
            ChargerDrone(
                f"C{j:02d}",
                self._random_position(f"{seed}/pos/charger/{j}"),
                capacity=self.charger_capacity_j,
                residual=self.charger_capacity_j * self._init_frac(f"{seed}/init/charger/{j}"),
                speed=self.charger_speed_ms,
                efficiency=self.charger_efficiency,
                move_power=self.charger_move_power_w,
            )
            for j in range(self.charger_count)
        ]
        mbs_drones = [
            MbsDrone(
                f"M{i:02d}",
                self._random_position(f"{seed}/pos/mbs/{i}"),
                capacity=self.mbs_capacity_j,
                residual=self.mbs_capacity_j * self._init_frac(f"{seed}/init/mbs/{i}"),
                efficiency=self.mbs_efficiency,
                plates=self.mbs_plates,
                hover_power=self.mbs_hover_power_w,
                charge_power_max=self.mbs_charge_power_max_w,
            )
            for i in range(self.mbs_count)
        ]
        dpp = DppConfig(
            v=self.dpp_v if self.dpp_v is not None else default_importance_weight(
                self.dpp_actions, self.channel, self.timing.slot_s
            ),
            action_set=self.dpp_actions,
            slot_s=self.timing.slot_s,
            channel=self.channel,
            arrival=self.arrival,
        )
        return Scenario(
            towers=towers,
            chargers=chargers,
            mbs_drones=mbs_drones,
            timing=self.timing,
            dpp=dpp,
            matching_mode=self.matching_mode,
            stage1_policy=self.stage1_policy,
            stage2_policy=self.stage2_policy,
            power_policy=self.power_policy,
            horizon=self.horizon,
            seed=self.seed,
            value_eps=self.value_eps,
        )

    def _random_position(self, stream: str, ground: bool = False) -> Position:
        rng = random.Random(stream)
        return Position(
            rng.uniform(0.0, self.map_width_m),
            rng.uniform(0.0, self.map_height_m),
            0.0 if ground else self.altitude_m,
        )

    def _init_frac(self, stream: str) -> float:
        return random.Random(stream).uniform(self.init_min_frac, self.init_max_frac)


def default_importance_weight(
    actions: tuple[float, ...], channel: ChannelModel, slot_s: float, typical_backlog: float = 1e6
) -> float:
    """Trade-off weight making energy and queue terms comparable.

    Chosen so that at a typical backlog the energy penalty of the top
    action roughly equals its service gain, which leaves the controller's
    ramp-up transient visible instead of collapsing it into one slot.
    """
    alpha_max = max(actions)
    e_max = powerctl.tx_energy(alpha_max, slot_s)
    if e_max <= 0:
        return 0.0
    b_max = powerctl.service_rate(alpha_max, channel, slot_s)
    return typical_backlog * b_max / e_max


# Canonical experiment setups used by the CLI and the acceptance suite.

def default_spec(seed: int = 0) -> ScenarioSpec:
    """Full default network: 25 MBS drones, 50 chargers, 1 four-plate tower."""
    return ScenarioSpec(seed=seed)


def charger_fairness_spec(seed: int = 0, stage1_policy: str = "proposed") -> ScenarioSpec:
    """Tower-to-charger evaluation: 25 chargers refilling at one four-plate
    tower over a long horizon, with no MBS tier draining them, so the final
    residual profile reflects the stage-1 policy alone."""
    return ScenarioSpec(
        seed=seed, horizon=120, charger_count=25, mbs_count=0, stage1_policy=stage1_policy
    )


def starvation_spec(seed: int = 0, horizon: int = 60) -> ScenarioSpec:
    """Charger-starvation experiment: the fairness roster under a policy
    that keeps re-serving whichever chargers are already fullest."""
    return ScenarioSpec(
        seed=seed, horizon=horizon, charger_count=25, mbs_count=0, stage1_policy="greedy_worst"
    )


def mbs_dominance_spec(seed: int = 0, stage2_policy: str = "proposed") -> ScenarioSpec:
    """Charger-to-MBS evaluation: 25 chargers serving 50 MBS drones.

    Transmission is disabled (drones drain by hover only) so the final MBS
    residual profile isolates the stage-2 policy, and flight power is set
    high enough that wasted trips visibly bleed the charger fleet.
    """
    return ScenarioSpec(
        seed=seed,
        horizon=90,
        charger_count=25,
        mbs_count=50,
        mbs_hover_power_w=15.0,
        charger_move_power_w=400.0,
        stage2_policy=stage2_policy,
        dpp_actions=(0.0,),
        arrival=ArrivalModel("constant", 0.0),
        timing=TimingConfig(slot_s=120.0, slots_per_unit=1),
    )


def sweep_spec(seed: int = 3) -> ScenarioSpec:
    """Coverage-time sweep base: 25 chargers, single-plate MBS drones.

    Uses a compact map so delivered-energy differences between chargers
    stay small and the fleet-size effect dominates the curve; transmission
    is disabled for the same reason.
    """
    return ScenarioSpec(
        seed=seed,
        horizon=45,
        charger_count=25,
        mbs_plates=1,
        map_width_m=300.0,
        map_height_m=200.0,
        mbs_hover_power_w=100.0,
        dpp_actions=(0.0,),
        arrival=ArrivalModel("constant", 0.0),
        timing=TimingConfig(slot_s=120.0, slots_per_unit=1),
    )


def stability_spec(seed: int = 0, power_policy: str = "dpp") -> ScenarioSpec:
    """Single-queue stability experiment.

    One MBS drone with an oversized battery and no charging tiers, run for
    3600 one-second slots under constant arrivals of 2e5 bits, sized so
    that the minimum positive power cannot keep up while the maximum
    easily can.  The explicit trade-off weight stretches the controller's
    ramp-up over roughly the first quarter of the horizon.
    """
    return ScenarioSpec(
        seed=seed,
        horizon=30,
        tower_count=0,
        charger_count=0,
        mbs_count=1,
        mbs_capacity_j=1e7,
        init_min_frac=1.0,
        init_max_frac=1.0,
        mbs_hover_power_w=0.0,
        dpp_v=3e11,
        power_policy=power_policy,
    )
