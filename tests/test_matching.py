import random
from dataclasses import replace

import numpy as np
import pytest

from uavcharge.core import ChargerDrone, MbsDrone, Position, TimingConfig, Tower
from uavcharge.core import InvalidParameterError
from uavcharge.matching import (
    InstanceTooLargeError,
    allocate_transfers,
    baseline_match,
    check_stage2,
    dump_instance,
    hessian_eigenvalues,
    pair_value,
    pair_value_matrix,
    parse_instance,
    random_stage1_instance,
    random_stage2_instance,
    stage1_brute_force,
    stage1_match,
    stage2_brute_force,
    stage2_match,
)
from uavcharge.simengine import default_spec

TIMING = TimingConfig()


def make_charger(cid="C0", x=0.0, y=0.0, capacity=1000.0, residual=500.0, **kw):
    return ChargerDrone(cid, Position(x, y, 100.0), capacity=capacity, residual=residual, **kw)


def make_mbs(mid="M0", x=0.0, y=0.0, capacity=1000.0, residual=500.0, **kw):
    return MbsDrone(mid, Position(x, y, 100.0), capacity=capacity, residual=residual, **kw)


def make_tower(tid="T0", x=0.0, y=0.0, plates=1):
    return Tower(tid, Position(x, y, 0.0), plates=plates)


# ----------------------------------------------------------------- stage 1

def test_stage1_prefers_larger_deficit():
    towers = [make_tower(plates=1)]
    chargers = [
        make_charger("C0", capacity=100.0, residual=90.0),   # deficit 10
        make_charger("C1", capacity=100.0, residual=80.0),   # deficit 20
    ]
    got = stage1_match(towers, chargers)
    oracle = stage1_brute_force(towers, chargers)
    assert got.objective == pytest.approx(oracle.objective, rel=1e-9)
    assert got.pairs == [("T0", "C1")]
    assert got.objective == pytest.approx(20.0)


def test_stage1_slack_plates_match_everyone():
    towers = [make_tower(plates=5)]
    chargers = [make_charger(f"C{j}", residual=100.0 * j, capacity=900.0) for j in range(4)]
    got = stage1_match(towers, chargers)
    assert len(got.pairs) == 4


def test_stage1_full_chargers_left_unmatched():
    towers = [make_tower(plates=3)]
    chargers = [make_charger("C0", capacity=500.0, residual=500.0)]
    got = stage1_match(towers, chargers)
    assert got.pairs == []
    assert got.objective == 0.0


def test_stage1_nearest_tower_tiebreak():
    towers = [make_tower("T0", x=1000.0), make_tower("T1", x=10.0)]
    chargers = [make_charger("C0", x=0.0, residual=100.0)]
    got = stage1_match(towers, chargers)
    assert got.pairs == [("T1", "C0")]


def test_stage1_empty_inputs():
    assert stage1_match([], []).objective == 0.0
    assert stage1_brute_force([make_tower()], []).objective == 0.0


def test_stage1_brute_force_two_towers():
    towers = [make_tower("T0", plates=1), make_tower("T1", x=50.0, plates=1)]
    chargers = [make_charger("C0", capacity=100.0, residual=95.0)]
    got = stage1_brute_force(towers, chargers)
    assert got.objective == pytest.approx(5.0)
    assert len(got.pairs) == 1


def test_stage1_brute_force_guard():
    towers = [make_tower(plates=9)]
    with pytest.raises(InstanceTooLargeError):
        stage1_brute_force(towers, [make_charger(f"C{j}") for j in range(9)])


def test_stage1_oracle_equivalence_small_suite():
    rng = random.Random("stage1-suite")
    for _ in range(60):
        towers, chargers = random_stage1_instance(rng)
        fast = stage1_match(towers, chargers)
        slow = stage1_brute_force(towers, chargers)
        assert fast.objective == pytest.approx(slow.objective, rel=1e-9, abs=1e-9)
        _assert_stage1_feasible(fast, towers, chargers)


def _assert_stage1_feasible(assignment, towers, chargers):
    per_tower = {t.id: 0 for t in towers}
    per_charger = {c.id: 0 for c in chargers}
    for tower_id, charger_id in assignment.pairs:
        per_tower[tower_id] += 1
        per_charger[charger_id] += 1
    for t in towers:
        assert per_tower[t.id] <= t.plates
    for c in chargers:
        assert per_charger[c.id] <= 1


# ---------------------------------------------------------------- pair value

def test_pair_value_direct_evaluation():
    # 55 s window, 0.6561 efficiency, (50000 - 1020) / 10000 neediness, 50000 J stock.
    charger = make_charger(capacity=60000.0, residual=50000.0, x=0.0)
    mbs = make_mbs(capacity=20000.0, residual=10000.0, x=100.0)
    got = pair_value(charger, mbs, 60.0)
    expected = 55.0 * 0.81 * 0.81 * ((50000.0 - 1020.0) / 10000.0) * 50000.0
    assert expected == pytest.approx(8_837_338.95, rel=1e-9)
    assert got.value == pytest.approx(expected, rel=1e-9)
    assert got.feasible


def test_pair_value_zero_when_transfer_equals_stock():
    charger = make_charger(residual=500.0)
    mbs = make_mbs()
    got = pair_value(charger, mbs, 60.0, e_transfer=500.0)
    assert got.value == 0.0
    assert not got.feasible


def test_pair_value_zero_when_cannot_afford_travel():
    # 204 W * 50 s of travel needs 10200 J; the charger has less.
    charger = make_charger(residual=5000.0, capacity=10000.0, x=0.0)
    mbs = make_mbs(x=1000.0)
    got = pair_value(charger, mbs, 60.0)
    assert got.value == 0.0
    assert not got.feasible


def test_pair_value_zero_when_window_consumed():
    charger = make_charger(residual=5e5, capacity=5e5, x=0.0)
    mbs = make_mbs(x=1300.0)  # 65 s of travel > 60 s window
    assert pair_value(charger, mbs, 60.0).value == 0.0


def test_pair_value_rejects_overdraw():
    with pytest.raises(InvalidParameterError):
        pair_value(make_charger(residual=100.0), make_mbs(), 60.0, e_transfer=200.0)


def test_pair_value_monotonicity():
    rng = random.Random("pair-mono")
    for _ in range(60):
        base_res = rng.uniform(1e3, 3e5)
        charger = make_charger(capacity=4e5, residual=base_res, x=0.0)
        mbs = make_mbs(capacity=4e5, residual=rng.uniform(1.0, 4e5), x=rng.uniform(0, 800))
        v0 = pair_value(charger, mbs, 60.0, 0.0).value
        # non-increasing in planned transfer
        v1 = pair_value(charger, mbs, 60.0, base_res * 0.5).value
        assert v1 <= v0 + 1e-9
        # non-increasing in distance
        far = make_mbs(capacity=4e5, residual=mbs.residual, x=mbs.position.x + 100.0)
        assert pair_value(charger, far, 60.0).value <= v0 + 1e-9
        # non-decreasing in charger stock
        richer = make_charger(capacity=4e5, residual=min(base_res * 1.5, 4e5), x=0.0)
        assert pair_value(richer, mbs, 60.0).value >= v0 - 1e-9


# ------------------------------------------------------- non-convexity witness

def test_hessian_eigenvalues_unit_pair():
    obj, con = hessian_eigenvalues(0.81, 0.81)
    assert obj[0] == pytest.approx(1.0, abs=1e-12)
    assert obj[1] == pytest.approx(-1.0, abs=1e-12)
    assert con[0] == pytest.approx(0.6561, abs=1e-12)
    assert con[1] == pytest.approx(-0.6561, abs=1e-12)


def test_hessian_eigenvalues_full_efficiency():
    _, con = hessian_eigenvalues(1.0, 1.0)
    assert con[0] == pytest.approx(1.0, abs=1e-12)
    assert con[1] == pytest.approx(-1.0, abs=1e-12)


def test_hessian_eigenvalues_mixed_signs():
    rng = random.Random("hessian")
    for _ in range(50):
        eta_c, eta_m = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
        obj, con = hessian_eigenvalues(eta_c, eta_m)
        assert obj[0] > 0 > obj[1]
        assert con[0] > 0 > con[1]
        assert con[0] == pytest.approx(eta_c * eta_m, abs=1e-12)


# ----------------------------------------------------------------- stage 2

def test_stage2_single_pair_modes():
    charger = make_charger(capacity=4e5, residual=2e5, x=0.0)
    mbs = make_mbs(capacity=4e5, residual=1e5, x=100.0)
    allocate = stage2_match([charger], [mbs], TIMING, mode="allocate")
    literal = stage2_match([charger], [mbs], TIMING, mode="literal")
    assert [(m, c) for m, c, _ in allocate.pairs] == [("M0", "C0")]
    assert [(m, c) for m, c, _ in literal.pairs] == [("M0", "C0")]
    assert literal.pairs[0][2] == 0.0
    # allocate fills to the tightest cap: charger budget, deficit, charge power
    budget = 2e5 - 1020.0
    deficit_cap = (4e5 - 1e5) / 0.6561
    power_cap = 160.0 * 55.0
    assert allocate.pairs[0][2] == pytest.approx(min(budget, deficit_cap, power_cap), rel=1e-9)


def test_stage2_one_plate_prefers_higher_value():
    chargers = [
        make_charger("C0", capacity=4e5, residual=1e5, x=0.0),
        make_charger("C1", capacity=4e5, residual=3e5, x=0.0),
    ]
    mbs = make_mbs(capacity=4e5, residual=1e5, x=100.0, plates=1)
    got = stage2_match(chargers, [mbs], TIMING)
    oracle = stage2_brute_force(chargers, [mbs], TIMING)
    assert got.objective == pytest.approx(oracle.objective, rel=1e-9)
    assert [(m, c) for m, c, _ in got.pairs] == [("M0", "C1")]


def test_stage2_all_values_zero_no_pairs():
    # stranded chargers: theirs stock cannot cover the approach flight
    chargers = [make_charger("C0", capacity=1e5, residual=100.0, x=0.0)]
    mbs = [make_mbs(x=1000.0)]
    for mode in ("allocate", "literal"):
        got = stage2_match(chargers, mbs, TIMING, mode=mode)
        assert got.pairs == []
        assert got.matched_value == 0.0


def test_stage2_excludes_dropped_drones():
    charger = make_charger(capacity=4e5, residual=2e5)
    dead = make_mbs("M0", residual=400.0, capacity=1000.0)
    dead.dropped = True
    got = stage2_match([charger], [dead], TIMING)
    assert got.pairs == []


def test_stage2_literal_transfers_all_zero():
    rng = random.Random("literal-zeros")
    for _ in range(40):
        chargers, mbs_list, timing = random_stage2_instance(rng)
        got = stage2_match(chargers, mbs_list, timing, mode="literal")
        assert all(t == 0.0 for _, _, t in got.pairs)


def test_stage2_brute_force_guard():
    chargers = [make_charger(f"C{j}") for j in range(6)]
    with pytest.raises(InstanceTooLargeError):
        stage2_brute_force(chargers, [make_mbs()], TIMING)


def test_stage2_empty_inputs():
    for mode in ("allocate", "literal"):
        assert stage2_match([], [], TIMING, mode=mode).pairs == []
        assert stage2_brute_force([], [], TIMING, mode=mode).pairs == []
        assert stage2_brute_force([], [], TIMING, mode=mode).objective == 0.0


def test_stage2_oracle_equivalence_small_suite():
    rng = random.Random("stage2-suite")
    for _ in range(40):
        chargers, mbs_list, timing = random_stage2_instance(rng)
        for mode in ("allocate", "literal"):
            fast = stage2_match(chargers, mbs_list, timing, mode=mode)
            slow = stage2_brute_force(chargers, mbs_list, timing, mode=mode)
            assert fast.objective == pytest.approx(slow.objective, rel=1e-9, abs=1e-9)
            assert fast.matched_value == pytest.approx(slow.matched_value, rel=1e-9, abs=1e-9)
            assert check_stage2(fast.pairs, chargers, mbs_list) == []


# --------------------------------------------------- pair-value matrix

def scalar_pair_values(chargers, mbs_list, mbs_phase_s, eps=1.0):
    values = [[pair_value(c, m, mbs_phase_s, 0.0, eps).value for m in mbs_list] for c in chargers]
    return np.array(values, dtype=float).reshape(len(chargers), len(mbs_list))


def edge_case_instance(rng, n_chargers, n_mbs, reach=3000.0):
    """Empty and full chargers, MBS drones under the eps floor, out-of-range
    placements, and multi-plate MBS drones, mixed with ordinary ones."""
    chargers = [
        make_charger(
            f"C{j}", x=rng.uniform(-reach, reach), y=rng.uniform(-reach, reach), capacity=4e5,
            residual=rng.choice([0.0, 4e5, rng.uniform(0, 4e5), rng.uniform(0, 2e3)]),
            speed=rng.uniform(5, 25), efficiency=rng.uniform(0.5, 1.0), move_power=rng.uniform(0, 400),
        )
        for j in range(n_chargers)
    ]
    mbs_list = [
        make_mbs(
            f"M{i}", x=rng.uniform(-1000, 1000), y=rng.uniform(-700, 700), capacity=4e5,
            residual=rng.choice([0.0, 0.4, 0.999, rng.uniform(0, 4e5)]),
            efficiency=rng.uniform(0.5, 1.0), plates=rng.randint(1, 3),
        )
        for i in range(n_mbs)
    ]
    return chargers, mbs_list


def test_pair_value_matrix_bit_equal_on_edge_cases():
    rng = random.Random("matrix-edges")
    kinds = set()
    for _ in range(60):
        chargers, mbs_list = edge_case_instance(rng, rng.randint(0, 12), rng.randint(0, 9))
        eps = rng.choice([1.0, 0.25, 5.0])
        got = pair_value_matrix(chargers, mbs_list, TIMING.mbs_phase_s, eps)
        want = scalar_pair_values(chargers, mbs_list, TIMING.mbs_phase_s, eps)
        assert got.shape == (len(chargers), len(mbs_list))
        assert np.array_equal(got, want)
        kinds.update(("zero" if v == 0.0 else "positive") for v in want.flat)
        kinds.update("floored" for m in mbs_list if m.residual < eps)
        kinds.update("empty" for c in chargers if c.residual == 0.0)
    assert kinds == {"zero", "positive", "floored", "empty"}


def test_pair_value_matrix_bit_equal_on_random_oracle_instances():
    rng = random.Random("matrix-oracle")
    for _ in range(100):
        chargers, mbs_list, timing = random_stage2_instance(rng, max_chargers=10, max_mbs=8, max_plates=3)
        got = pair_value_matrix(chargers, mbs_list, timing.mbs_phase_s)
        assert np.array_equal(got, scalar_pair_values(chargers, mbs_list, timing.mbs_phase_s))


def test_pair_value_matrix_bit_equal_on_scale_roster():
    scenario = replace(default_spec(seed=1), charger_count=800, mbs_count=400).build()
    got = pair_value_matrix(scenario.chargers, scenario.mbs_drones, scenario.timing.mbs_phase_s)
    want = scalar_pair_values(scenario.chargers, scenario.mbs_drones, scenario.timing.mbs_phase_s)
    assert got.shape == (800, 400)
    assert np.array_equal(got, want)


def test_pair_value_matrix_squares_like_python_pow():
    # Python's ``dx ** 2`` is libm pow; with glibc it differs from ``dx * dx``
    # in the last bit for this pair, and so does the final score.
    charger = make_charger(x=-229.35877783932688, y=72.67676310606106, capacity=4e5, residual=3e5)
    mbs = make_mbs(x=300.0, y=300.0, capacity=4e5, residual=1e5)
    got = pair_value_matrix([charger], [mbs], TIMING.mbs_phase_s)
    assert got[0, 0] > 0.0
    assert got[0, 0] == pair_value(charger, mbs, TIMING.mbs_phase_s).value


def test_pair_value_matrix_rejects_bad_eps():
    with pytest.raises(InvalidParameterError):
        pair_value_matrix([make_charger()], [make_mbs()], TIMING.mbs_phase_s, eps=0.0)


def test_stage2_matches_networkx_on_large_instances():
    nx = pytest.importorskip("networkx")
    rng = random.Random("networkx")
    shared_plates = 0
    for _ in range(6):
        chargers, mbs_list = edge_case_instance(rng, 30, 15, reach=1000.0)
        weights = scalar_pair_values(chargers, mbs_list, TIMING.mbs_phase_s)
        graph = nx.Graph()
        for i, mbs in enumerate(mbs_list):
            for plate in range(mbs.plates):
                for j in range(len(chargers)):
                    if weights[j, i] > 0.0:
                        graph.add_edge(("charger", j), ("plate", i, plate), weight=weights[j, i])
        expected = sum(graph.edges[e]["weight"] for e in nx.max_weight_matching(graph))
        charger_idx = {c.id: j for j, c in enumerate(chargers)}
        mbs_idx = {m.id: i for i, m in enumerate(mbs_list)}
        for mode in ("allocate", "literal"):
            got = stage2_match(chargers, mbs_list, TIMING, mode=mode)
            assert got.matched_value == pytest.approx(expected, rel=1e-9)
            assert check_stage2(got.pairs, chargers, mbs_list) == []
            assert all(weights[charger_idx[c], mbs_idx[m]] > 0.0 for m, c, _ in got.pairs)
        shared_plates += sum(sum(p[0] == m.id for p in got.pairs) > 1 for m in mbs_list)
    assert shared_plates > 0


def test_check_stage2_reports_each_violation():
    chargers = [make_charger("C0", capacity=1e4, residual=100.0), make_charger("C1", capacity=1e4, residual=5e3)]
    mbs_list = [make_mbs("M0", capacity=1e4, residual=9e3, plates=1), make_mbs("M1", capacity=1e4, residual=0.0)]
    assert check_stage2([("M1", "C0", 50.0)], chargers, mbs_list) == []
    violations = check_stage2(
        [("M0", "C0", -1.0), ("M0", "C1", 4e3), ("M1", "C1", 2e3)], chargers, mbs_list
    )
    text = "\n".join(violations)
    assert "M0/C0: transfer -1.0 J is not >= 0" in text
    assert "M0: 2 chargers on 1 plates" in text
    assert "C1: 2 MBS drones, 6000.0 J sent of 5000.0 J" in text
    assert len(violations) == 3
    assert check_stage2([("M1", "C1", 4e3)], chargers, mbs_list) == []
    over = check_stage2([("M0", "C1", 4e3)], chargers, mbs_list)
    assert over == [f"M0: 1 chargers on 1 plates, {4e3 * (0.81 * 0.81)} J for 1000.0 J"]
    # A NaN transfer fails the sign check and both energy sums.
    assert check_stage2([("M1", "C0", float("nan"))], chargers, mbs_list) == [
        "M1/C0: transfer nan J is not >= 0",
        "M1: 1 chargers on 1 plates, nan J for 10000.0 J",
        "C0: 1 MBS drones, nan J sent of 100.0 J",
    ]


# ----------------------------------------------------------- transfer filling

def test_allocate_transfers_zero_deficit():
    charger = make_charger(capacity=4e5, residual=2e5, x=0.0)
    full = make_mbs(capacity=1e5, residual=1e5, x=100.0)
    out = allocate_transfers([("M0", "C0")], [charger], [full], TIMING)
    assert out == [("M0", "C0", 0.0)]


def test_allocate_transfers_charger_limited():
    # budget 1000 J after travel, deficit cap 5000 J, power cap 8800 J
    charger = make_charger(capacity=4e5, residual=2020.0, x=0.0)
    mbs = make_mbs(capacity=1e5, residual=1e5 - 5000.0 * 0.6561, x=100.0)
    out = allocate_transfers([("M0", "C0")], [charger], [mbs], TIMING)
    assert out[0][2] == pytest.approx(1000.0, rel=1e-9)


def test_allocate_transfers_sequential_fill():
    rich = make_charger("C0", capacity=4e5, residual=3e5, x=0.0)
    poor = make_charger("C1", capacity=4e5, residual=1e5, x=0.0)
    mbs = make_mbs(capacity=1e5, residual=1e5 - 656.1, x=100.0, plates=2)
    out = allocate_transfers([("M0", "C0"), ("M0", "C1")], [rich, poor], [mbs], TIMING)
    by_charger = {cid: t for _, cid, t in out}
    assert by_charger["C0"] == pytest.approx(1000.0, rel=1e-9)
    assert by_charger["C1"] == pytest.approx(0.0, abs=1e-6)


def test_allocate_transfers_power_cap():
    charger = make_charger(capacity=4e6, residual=4e6, x=0.0)
    mbs = make_mbs(capacity=4e6, residual=0.0, x=100.0)
    out = allocate_transfers([("M0", "C0")], [charger], [mbs], TIMING)
    assert out[0][2] == pytest.approx(160.0 * 55.0, rel=1e-9)


# ------------------------------------------------------------------ baselines

def test_greedy_worst_serves_the_rich():
    towers = [make_tower(plates=1)]
    chargers = [
        make_charger("C0", capacity=1000.0, residual=900.0),
        make_charger("C1", capacity=1000.0, residual=100.0),
    ]
    worst = baseline_match("greedy_worst", 1, towers=towers, chargers=chargers)
    best = baseline_match("greedy_best", 1, towers=towers, chargers=chargers)
    assert worst.pairs == [("T0", "C0")]
    assert best.pairs == [("T0", "C1")]


def test_random_baseline_reproducible():
    towers = [make_tower(plates=2)]
    chargers = [make_charger(f"C{j}", residual=100.0 * j, capacity=900.0) for j in range(6)]
    one = baseline_match("random", 1, towers=towers, chargers=chargers, rng=random.Random(7))
    two = baseline_match("random", 1, towers=towers, chargers=chargers, rng=random.Random(7))
    assert one.pairs == two.pairs


def test_random_baseline_requires_rng():
    with pytest.raises(InvalidParameterError):
        baseline_match("random", 1, towers=[make_tower()], chargers=[make_charger()])


def test_stage1_dominates_baselines():
    rng = random.Random("dominance")
    for _ in range(60):
        towers, chargers = random_stage1_instance(rng)
        optimum = stage1_match(towers, chargers).objective
        for strategy in ("random", "greedy_best", "greedy_worst"):
            got = baseline_match(
                strategy, 1, towers=towers, chargers=chargers, rng=random.Random(1)
            )
            assert got.objective <= optimum + 1e-9
            _assert_stage1_feasible(got, towers, chargers)


def test_stage2_baselines_feasible_and_dominated():
    rng = random.Random("dominance2")
    for _ in range(40):
        chargers, mbs_list, timing = random_stage2_instance(rng)
        optimum = stage2_match(chargers, mbs_list, timing).matched_value
        for strategy in ("random", "greedy_best", "greedy_worst"):
            got = baseline_match(
                strategy, 2, chargers=chargers, mbs_list=mbs_list, timing=timing,
                rng=random.Random(2),
            )
            assert got.matched_value <= optimum + 1e-9 * max(optimum, 1.0)
            assert check_stage2(got.pairs, chargers, mbs_list) == []


def test_stage2_greedy_order():
    chargers = [make_charger("C0", capacity=4e5, residual=2e5, x=0.0)]
    rich = make_mbs("M0", capacity=4e5, residual=3.6e5, x=100.0)
    poor = make_mbs("M1", capacity=4e5, residual=0.4e5, x=100.0)
    worst = baseline_match("greedy_worst", 2, chargers=chargers, mbs_list=[rich, poor], timing=TIMING)
    best = baseline_match("greedy_best", 2, chargers=chargers, mbs_list=[rich, poor], timing=TIMING)
    assert [(m, c) for m, c, _ in worst.pairs] == [("M0", "C0")]
    assert [(m, c) for m, c, _ in best.pairs] == [("M1", "C0")]


# ------------------------------------------------------------ instance format

def test_instance_round_trip():
    rng = random.Random("roundtrip")
    towers, chargers = random_stage1_instance(rng)
    chargers2, mbs_list, timing = random_stage2_instance(rng)
    text = dump_instance(towers, chargers + chargers2, mbs_list, timing)
    towers_rt, chargers_rt, mbs_rt, timing_rt = parse_instance(text)
    assert towers_rt == towers
    assert chargers_rt == chargers + chargers2
    assert mbs_rt == mbs_list
    assert timing_rt == timing


def test_parse_instance_reports_line():
    with pytest.raises(InvalidParameterError, match="line 2"):
        parse_instance("# ok\ncharger C0 bogus\n")
