import copy

import pytest

from uavcharge.core import (
    ChargerDrone,
    InvalidParameterError,
    MbsDrone,
    Position,
    TimingConfig,
    Tower,
    apply_charge,
    tower_charge_amount,
    travel_energy,
)
from uavcharge.powerctl import ArrivalModel, DppConfig
from uavcharge.simengine import Scenario, ScenarioSpec, SimState, run, step_unit_time, sweep_mbs_count

QUIET_DPP = DppConfig(action_set=(0.0,), arrival=ArrivalModel("constant", 0.0))
ONE_SLOT = TimingConfig(slot_s=120.0, slots_per_unit=1)


def quiet_scenario(**kw):
    defaults = dict(
        towers=[], chargers=[], mbs_drones=[], timing=ONE_SLOT, dpp=QUIET_DPP, horizon=3, seed=1
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_run_rejects_bad_horizon():
    scenario = quiet_scenario(mbs_drones=[MbsDrone("M0", Position(0, 0, 100))], horizon=0)
    with pytest.raises(InvalidParameterError):
        run(scenario)


def test_run_rejects_duplicate_ids():
    scenario = quiet_scenario(
        mbs_drones=[MbsDrone("X", Position(0, 0, 100))],
        chargers=[ChargerDrone("X", Position(0, 0, 100))],
    )
    with pytest.raises(InvalidParameterError):
        run(scenario)


def test_no_arrivals_full_batteries_no_drops():
    mbs = [MbsDrone(f"M{i}", Position(10.0 * i, 0, 100), hover_power=0.0) for i in range(3)]
    result = run(quiet_scenario(mbs_drones=mbs, horizon=5))
    assert result.coverage_time is None
    assert result.survived
    assert result.units_run == 5
    final = result.snapshots[-1]
    assert all(residual == cap for residual, cap in final.mbs_energy.values())


def test_run_is_deterministic():
    spec = ScenarioSpec(seed=12, horizon=4, charger_count=8, mbs_count=5)
    assert run(spec.build()) == run(spec.build())


def test_no_chargers_drains_by_hover_and_tx():
    mbs = MbsDrone("M0", Position(0, 0, 100), capacity=1e6, residual=1e6, hover_power=50.0)
    dpp = DppConfig(action_set=(0.0, 10.0), v=0.0, arrival=ArrivalModel("constant", 1e5))
    scenario = quiet_scenario(
        mbs_drones=[mbs], dpp=dpp, timing=TimingConfig(), horizon=2
    )
    result = run(scenario)
    # v=0 and a backlog make the controller transmit at 10 W every slot after the first
    per_unit = result.snapshots[0].mbs_flows["M0"]
    assert per_unit.hover_drain == pytest.approx(50.0 * 120.0)
    assert per_unit.received == 0.0
    first, second = result.snapshots[0], result.snapshots[1]
    assert second.mbs_energy["M0"][0] < first.mbs_energy["M0"][0] < 1e6


def test_charger_adjacent_to_tower_full_window_capped():
    tower = Tower("T0", Position(0, 0, 0), plates=1, charge_power=100.0, efficiency=0.81)
    charger = ChargerDrone("C0", Position(0, 0, 0), capacity=4e5, residual=1e5, efficiency=0.81)
    scenario = quiet_scenario(towers=[tower], chargers=[charger], horizon=1)
    result = run(scenario)
    credit = result.snapshots[0].charger_flows["C0"].tower_credit
    assert credit == pytest.approx(100.0 * 0.81 * 0.81 * 60.0, rel=1e-9)

    nearly_full = ChargerDrone("C1", Position(0, 0, 0), capacity=4e5, residual=4e5 - 100.0, efficiency=0.81)
    result = run(quiet_scenario(towers=[tower], chargers=[nearly_full], horizon=1))
    assert result.snapshots[0].charger_flows["C1"].tower_credit == pytest.approx(100.0)
    assert result.snapshots[0].charger_energy["C1"][0] == pytest.approx(4e5)


def test_drone_below_one_unit_of_drain_drops():
    mbs = MbsDrone("M0", Position(0, 0, 100), capacity=1e5, residual=100.0 * 120.0 / 2.0, hover_power=100.0)
    result = run(quiet_scenario(mbs_drones=[mbs], horizon=3))
    assert result.dropped_at == {"M0": 1}
    assert result.coverage_time == 1
    assert result.snapshots[0].mbs_energy["M0"][0] == 0.0
    assert result.units_run == 1  # everyone dropped, run stops early


def test_drone_starting_empty_drops_at_zero():
    mbs = [
        MbsDrone("M0", Position(0, 0, 100), capacity=1e5, residual=0.0),
        MbsDrone("M1", Position(10, 0, 100), capacity=1e5, residual=1e5, hover_power=0.0),
    ]
    result = run(quiet_scenario(mbs_drones=mbs, horizon=2))
    assert result.coverage_time == 0
    assert result.dropped_at["M0"] == 0


def test_hand_traced_two_unit_run():
    """Every number in a tiny two-unit run, recomputed with core arithmetic."""
    timing = ONE_SLOT
    tower = Tower("T0", Position(0, 0, 0), plates=1, charge_power=100.0, efficiency=0.81)
    charger = ChargerDrone(
        "C0", Position(300.0, 0, 0), capacity=4e5, residual=2e5,
        speed=20.0, efficiency=0.81, move_power=204.0,
    )
    mbs = MbsDrone(
        "M0", Position(0, 400.0, 0), capacity=4e5, residual=1e5,
        efficiency=0.81, hover_power=10.0, charge_power_max=160.0,
    )
    scenario = quiet_scenario(
        towers=[tower], chargers=[copy.deepcopy(charger)], mbs_drones=[copy.deepcopy(mbs)], horizon=2
    )
    result = run(scenario)

    # unit 1, phase 1: charger flies 300 m to the tower and charges
    credit1 = tower_charge_amount(100.0, 0.81, 0.81, 60.0, 300.0, 20.0)
    c_res = 2e5 + credit1
    # phase 2: charger now at the tower, 400 m from the drone
    travel1 = travel_energy(400.0, 20.0, 204.0)
    window1 = 60.0 - 400.0 / 20.0
    transfer1 = min(c_res - travel1, (4e5 - 1e5) / 0.6561, 160.0 * window1)
    c_res -= travel1 + transfer1
    m_res = apply_charge(1e5, transfer1 * 0.6561, 4e5)
    # phase 3: hover drain only (quiet controller)
    m_res -= 10.0 * 120.0
    snap1 = result.snapshots[0]
    assert snap1.charger_energy["C0"][0] == pytest.approx(c_res, rel=1e-12)
    assert snap1.mbs_energy["M0"][0] == pytest.approx(m_res, rel=1e-12)

    # unit 2: the charger starts on the drone, returns to the tower (400 m)
    # in phase 1, then flies the same 400 m back out in phase 2
    credit2 = tower_charge_amount(100.0, 0.81, 0.81, 60.0, 400.0, 20.0)
    c_res += credit2
    travel2 = travel_energy(400.0, 20.0, 204.0)
    window2 = 60.0 - 400.0 / 20.0
    transfer2 = min(c_res - travel2, (4e5 - m_res) / 0.6561, 160.0 * window2)
    c_res -= travel2 + transfer2
    m_res = apply_charge(m_res, transfer2 * 0.6561, 4e5) - 10.0 * 120.0
    snap2 = result.snapshots[1]
    assert snap2.charger_energy["C0"][0] == pytest.approx(c_res, rel=1e-12)
    assert snap2.mbs_energy["M0"][0] == pytest.approx(m_res, rel=1e-12)


def test_energy_conservation_invariants():
    spec = ScenarioSpec(seed=4, horizon=6, charger_count=10, mbs_count=6)
    scenario = spec.build()
    result = run(scenario)
    prev_c = {c.id: c.residual for c in scenario.chargers}
    prev_m = {m.id: m.residual for m in scenario.mbs_drones}
    caps_m = {m.id: m.capacity for m in scenario.mbs_drones}
    for snap in result.snapshots:
        for cid, (residual, capacity) in snap.charger_energy.items():
            flows = snap.charger_flows[cid]
            assert flows.tower_credit >= 0 and flows.transfers_sent >= 0 and flows.travel_spent >= 0
            expected = prev_c[cid] + flows.tower_credit - flows.transfers_sent - flows.travel_spent
            assert residual == pytest.approx(max(expected, 0.0), abs=1e-6)
            assert -1e-9 <= residual <= capacity + 1e-9
            prev_c[cid] = residual
        for mid, (residual, capacity) in snap.mbs_energy.items():
            flows = snap.mbs_flows[mid]
            expected = min(max(prev_m[mid] + flows.received - flows.hover_drain - flows.tx_drain, 0.0), caps_m[mid])
            assert residual == pytest.approx(expected, abs=1e-6)
            assert 0.0 <= residual <= capacity + 1e-9
            prev_m[mid] = residual


def test_dropped_drones_never_reappear():
    spec = ScenarioSpec(seed=2, horizon=25, charger_count=4, mbs_count=6, mbs_hover_power_w=260.0)
    result = run(spec.build())
    assert result.dropped_at, "scenario was tuned to produce drops"
    for mid, dropped_unit in result.dropped_at.items():
        for snap in result.snapshots:
            if snap.unit <= dropped_unit:
                continue
            assert all(m != mid for m, _, _ in snap.stage2_pairs)
            assert snap.mbs_energy[mid][0] == 0.0
        last_slot_unit = 1 + max(
            (slot // spec.timing.slots_per_unit for slot in result.queue_traces[mid].slot.tolist()), default=0
        )
        assert last_slot_unit <= dropped_unit


def test_separability_queues_do_not_steer_matching():
    spec = ScenarioSpec(seed=6, horizon=1, charger_count=8, mbs_count=5)
    base = SimState.from_scenario(spec.build())
    flooded = copy.deepcopy(base)
    for m in flooded.mbs_drones:
        m.queue.backlog = 1e12
    step_unit_time(base)
    step_unit_time(flooded)
    assert base.snapshots[0].stage1_pairs == flooded.snapshots[0].stage1_pairs
    assert base.snapshots[0].stage2_pairs == flooded.snapshots[0].stage2_pairs


def test_separability_matchings_do_not_steer_power():
    # identical queue traces with and without any charging tiers
    with_chargers = ScenarioSpec(seed=8, horizon=3, charger_count=6, mbs_count=4, mbs_hover_power_w=0.0)
    without = ScenarioSpec(seed=8, horizon=3, tower_count=0, charger_count=0, mbs_count=4, mbs_hover_power_w=0.0)
    traces_a = run(with_chargers.build()).queue_traces
    traces_b = run(without.build()).queue_traces
    assert traces_a == traces_b


def test_sweep_single_count():
    rows = sweep_mbs_count(ScenarioSpec(seed=1, horizon=2, charger_count=2, mbs_count=9), [1])
    assert len(rows) == 1
    assert rows[0][0] == 1


def test_sweep_rejects_bad_counts():
    spec = ScenarioSpec(seed=1, horizon=2)
    with pytest.raises(InvalidParameterError):
        sweep_mbs_count(spec, [])
    with pytest.raises(InvalidParameterError):
        sweep_mbs_count(spec, [2, 2])
    with pytest.raises(InvalidParameterError):
        sweep_mbs_count(spec, [3, 1])
    with pytest.raises(InvalidParameterError):
        sweep_mbs_count(spec, [0, 1])


def test_roster_prefix_stability():
    small = ScenarioSpec(seed=9, mbs_count=3).build()
    large = ScenarioSpec(seed=9, mbs_count=7).build()
    for a, b in zip(small.mbs_drones, large.mbs_drones):
        assert a.id == b.id
        assert a.position == b.position
        assert a.residual == b.residual
    assert small.chargers == large.chargers
    assert small.towers == large.towers


def test_scenario_spec_build_validates():
    spec = ScenarioSpec(seed=1, tower_count=0, charger_count=0, mbs_count=0)
    with pytest.raises(InvalidParameterError):
        spec.build().validate()
