"""Two-stage charging matching: solvers, transfer allocation, baselines, oracles.

Stage 1 pairs charging towers with charging drones to maximize the total
charging capacity (battery deficit) of the served drones, subject to
per-tower plate counts and one tower per drone.  Stage 2 pairs charging
drones with MBS drones to maximize a value score that favors close,
well-stocked chargers and nearly-empty MBS drones, subject to per-MBS
plate counts and one MBS per charger; matched pairs then receive an
energy-transfer allocation.

Both stages ship with exhaustive brute-force oracles for small instances,
plus random/greedy baselines used in the evaluation scenarios.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import (
    ChargerDrone,
    InvalidParameterError,
    MbsDrone,
    Position,
    TimingConfig,
    Tower,
    distance,
    travel_energy,
    travel_time,
)

# Near-empty MBS drones would make the neediness ratio blow up; the
# denominator is floored at one joule.
VALUE_EPS_J = 1.0


class InstanceTooLargeError(ValueError):
    """An instance exceeds the enumeration bounds of a brute-force oracle."""


@dataclass
class Stage1Assignment:
    """Tower-to-charger matching, pairs as (tower_id, charger_id)."""

    pairs: list[tuple[str, str]] = field(default_factory=list)
    objective: float = 0.0


@dataclass
class PairValue:
    """Score of scheduling one charger onto one MBS drone."""

    charger_id: str
    mbs_id: str
    value: float
    feasible: bool


@dataclass
class Stage2Assignment:
    """Charger-to-MBS matching with per-pair energy transfers.

    ``pairs`` holds (mbs_id, charger_id, transfer_j).  ``matched_value``
    is the summed pair score of the matching itself; ``objective`` is the
    mode's program objective (equal to ``matched_value`` in allocate
    mode, the all-pairs value total in literal mode).
    """

    pairs: list[tuple[str, str, float]] = field(default_factory=list)
    objective: float = 0.0
    matched_value: float = 0.0
    mode: str = "allocate"


def stage1_match(towers: list[Tower], chargers: list[ChargerDrone]) -> Stage1Assignment:
    """Tower-to-charger matching, exact for the deficit objective.

    The objective coefficient of a charger (its deficit) does not depend
    on which tower serves it, so serving the largest-deficit drones up to
    the total plate supply is exactly optimal.  Ties break toward the
    earlier charger in roster order.  Towers are then assigned greedily:
    each served drone, in deficit order, takes the nearest tower with a
    free plate.  That maximizes delivered energy only with a single tower;
    with more, a different assignment can deliver more (ROADMAP item 2).
    """
    candidates = [(c.deficit, idx) for idx, c in enumerate(chargers) if c.deficit > 0]
    candidates.sort(key=lambda t: (-t[0], t[1]))
    free = [t.plates for t in towers]
    total_free = sum(free)
    pairs: list[tuple[str, str]] = []
    objective = 0.0
    for deficit, idx in candidates[: min(len(candidates), total_free)]:
        charger = chargers[idx]
        k = min(
            (k for k in range(len(towers)) if free[k] > 0),
            key=lambda k: (distance(towers[k].position, charger.position), k),
        )
        free[k] -= 1
        pairs.append((towers[k].id, charger.id))
        objective += deficit
    return Stage1Assignment(pairs=pairs, objective=objective)


def stage1_brute_force(towers: list[Tower], chargers: list[ChargerDrone]) -> Stage1Assignment:
    """Exhaustive stage-1 optimum; oracle for small instances only."""
    if len(chargers) > 8 or sum(t.plates for t in towers) > 8:
        raise InstanceTooLargeError("stage-1 oracle bound: <= 8 chargers and <= 8 total plates")
    choices = [None] + list(range(len(towers)))
    best: Stage1Assignment | None = None
    for combo in itertools.product(choices, repeat=len(chargers)):
        used = [0] * len(towers)
        ok = True
        for k in combo:
            if k is not None:
                used[k] += 1
                if used[k] > towers[k].plates:
                    ok = False
                    break
        if not ok:
            continue
        objective = sum(chargers[j].deficit for j, k in enumerate(combo) if k is not None)
        if best is None or objective > best.objective:
            best = Stage1Assignment(
                pairs=[(towers[k].id, chargers[j].id) for j, k in enumerate(combo) if k is not None],
                objective=objective,
            )
    return best if best is not None else Stage1Assignment()


def pair_value(
    charger: ChargerDrone,
    mbs: MbsDrone,
    mbs_phase_s: float,
    e_transfer: float = 0.0,
    eps: float = VALUE_EPS_J,
) -> PairValue:
    """Score one charger/MBS pairing at a given planned transfer.

    The score multiplies the charging window left after the approach
    flight, both transfer efficiencies, the ratio of the charger's
    post-travel energy to the MBS drone's residual (prioritizing needy
    drones), and the charger's residual after the transfer.  It is zero
    whenever the charger cannot afford the flight or the flight eats the
    whole phase window.
    """
    if not 0.0 <= e_transfer <= charger.residual:
        raise InvalidParameterError(
            f"transfer {e_transfer} outside [0, charger residual {charger.residual}]"
        )
    if eps <= 0.0:
        raise InvalidParameterError(f"eps must be > 0, got {eps}")
    d = distance(charger.position, mbs.position)
    window = max(mbs_phase_s - travel_time(d, charger.speed), 0.0)
    reachable = max(charger.residual - travel_energy(d, charger.speed, charger.move_power), 0.0)
    need_ratio = reachable / max(mbs.residual, eps)
    value = window * charger.efficiency * mbs.efficiency * need_ratio * (charger.residual - e_transfer)
    value = max(value, 0.0)
    return PairValue(charger_id=charger.id, mbs_id=mbs.id, value=value, feasible=value > 0.0)


def hessian_eigenvalues(eta_c: float, eta_m: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Eigenvalue pairs witnessing that the raw stage-2 program is non-convex.

    With a single charger/MBS pair the objective term and the
    charging-capacity constraint are both bilinear in (transfer, match
    index); their 2x2 Hessians are computed here and each has one strictly
    positive and one strictly negative eigenvalue, so neither is convex.
    Returned as ((+1, -1), (+eta_c*eta_m, -eta_c*eta_m)), positive first.
    """
    if not (0 < eta_c <= 1 and 0 < eta_m <= 1):
        raise InvalidParameterError("efficiencies must be in (0, 1]")
    objective_hessian = np.array([[0.0, -1.0], [-1.0, 0.0]])
    constraint_hessian = np.array([[0.0, eta_c * eta_m], [eta_c * eta_m, 0.0]])
    obj_eigs = np.linalg.eigvalsh(objective_hessian)
    con_eigs = np.linalg.eigvalsh(constraint_hessian)
    return (
        (float(obj_eigs[1]), float(obj_eigs[0])),
        (float(con_eigs[1]), float(con_eigs[0])),
    )


def pair_value_matrix(
    chargers: list[ChargerDrone],
    mbs_list: list[MbsDrone],
    mbs_phase_s: float,
    eps: float = VALUE_EPS_J,
) -> np.ndarray:
    """Zero-transfer ``pair_value`` of every charger (row) and MBS drone (column).

    Follows ``pair_value``'s operation order, squaring with ``float_power``
    (libm ``pow``, like Python's ``**``; ``dx*dx`` can differ in the last
    bit), so every entry is bit-equal to the scalar score.  Works in two
    in-place n_chargers x n_mbs buffers.
    """
    if eps <= 0.0:
        raise InvalidParameterError(f"eps must be > 0, got {eps}")
    c = np.array([(ch.position.x, ch.position.y, ch.position.z, ch.speed, ch.move_power, ch.residual, ch.efficiency)
                  for ch in chargers], dtype=float).reshape(-1, 7)
    m = np.array([(mb.position.x, mb.position.y, mb.position.z, max(mb.residual, eps), mb.efficiency)
                  for mb in mbs_list], dtype=float).reshape(-1, 5)
    cx, cy, cz, speed, move_power, residual, eta_c = c.T[:, :, None]
    mx, my, mz, mbs_residual, eta_m = m.T
    a = np.empty((len(chargers), len(mbs_list)))
    b = np.empty_like(a)
    np.float_power(np.subtract(cx, mx, out=a), 2.0, out=a)
    a += np.float_power(np.subtract(cy, my, out=b), 2.0, out=b)
    a += np.float_power(np.subtract(cz, mz, out=b), 2.0, out=b)
    np.sqrt(a, out=a)
    a /= speed  # travel time
    np.maximum(np.subtract(residual, np.multiply(move_power, a, out=b), out=b), 0.0, out=b)  # reachable
    np.maximum(np.subtract(mbs_phase_s, a, out=a), 0.0, out=a)  # window
    a *= eta_c
    a *= eta_m
    a *= np.divide(b, mbs_residual, out=b)  # need ratio
    a *= residual
    return np.maximum(a, 0.0, out=a)


def _max_weight_matching(weights: np.ndarray, mbs_plates: list[int]) -> list[tuple[int, int]]:
    """Exact max-weight matching: chargers x MBS, per-MBS plate capacities.

    Each MBS drone becomes one column per plate (no copy when every drone
    has one), and ``linear_sum_assignment`` solves the rectangular problem
    as is (Crouse 2016), matching min(rows, columns) pairs.  Every weight
    is >= 0, so dropping the zero-weight pairs leaves a maximum-weight
    matching.  Returns (charger index, mbs index) pairs in charger order.
    """
    if weights.size == 0:
        return []
    owner = np.repeat(np.arange(len(mbs_plates)), mbs_plates)
    matrix = weights if len(owner) == len(mbs_plates) else weights[:, owner]
    rows, cols = linear_sum_assignment(matrix, maximize=True)
    keep = matrix[rows, cols] > 0.0
    return list(zip(rows[keep].tolist(), owner[cols[keep]].tolist()))


def stage2_match(
    chargers: list[ChargerDrone],
    mbs_list: list[MbsDrone],
    timing: TimingConfig,
    mode: str = "allocate",
    eps: float = VALUE_EPS_J,
) -> Stage2Assignment:
    """Charger-to-MBS matching under the chosen program interpretation.

    ``allocate`` (default) solves the exact maximum-weight capacitated
    matching on the zero-transfer pair scores and then fills in transfer
    energies greedily up to the charger, deficit, and charging-power caps.

    ``literal`` solves the convexified program exactly as posed: the
    objective sums the pair scores over all pairs and every score is
    non-increasing in its transfer, so the optimum sets all transfers to
    zero and leaves the match indices free; the same max-weight matching
    is used as the deterministic secondary criterion.
    """
    if mode not in ("literal", "allocate"):
        raise InvalidParameterError(f"unknown stage-2 mode {mode!r}")
    live = [m for m in mbs_list if not m.dropped]
    weights = pair_value_matrix(chargers, live, timing.mbs_phase_s, eps)
    pairs_idx = _max_weight_matching(weights, [m.plates for m in live])
    scores = [weights[j, i] for j, i in pairs_idx]
    matched_value = float(sum(scores))
    if mode == "literal":
        pairs = [(live[i].id, chargers[j].id, 0.0) for j, i in pairs_idx]
        objective = float(weights.sum())
    else:
        pairs = _fill_transfers(pairs_idx, scores, chargers, live, timing)
        objective = matched_value
    return Stage2Assignment(pairs=pairs, objective=objective, matched_value=matched_value, mode=mode)


def allocate_transfers(
    matching: list[tuple[str, str]],
    chargers: list[ChargerDrone],
    mbs_list: list[MbsDrone],
    timing: TimingConfig,
    eps: float = VALUE_EPS_J,
) -> list[tuple[str, str, float]]:
    """Assign transfer energies to a feasible (mbs_id, charger_id) matching.

    Per MBS drone, matched chargers are processed in descending pair-score
    order (ties by charger id); each sends the most it can subject to three
    caps: energy left after the approach flight, the drone's remaining
    deficit (divided by the pair's transfer efficiency), and the battery's
    maximum charging power over the post-travel window.  Scores are the
    scalar ``pair_value`` of the matched pairs; the solvers apply the same
    rule with the scores of the pair-value matrix they already hold.
    """
    charger_idx = {c.id: j for j, c in enumerate(chargers)}
    mbs_idx = {m.id: i for i, m in enumerate(mbs_list)}
    pairs_idx = [(charger_idx[charger_id], mbs_idx[mbs_id]) for mbs_id, charger_id in matching]
    scores = [pair_value(chargers[j], mbs_list[i], timing.mbs_phase_s, 0.0, eps).value for j, i in pairs_idx]
    return _fill_transfers(pairs_idx, scores, chargers, mbs_list, timing)


def _fill_transfers(
    pairs_idx: list[tuple[int, int]],
    scores: list[float],
    chargers: list[ChargerDrone],
    mbs_list: list[MbsDrone],
    timing: TimingConfig,
) -> list[tuple[str, str, float]]:
    """``allocate_transfers`` on (charger index, mbs index) pairs whose pair
    scores are already known."""
    transfers = [0.0] * len(pairs_idx)
    remaining: dict[int, float] = {}
    for k in sorted(range(len(scores)), key=lambda k: (-scores[k], chargers[pairs_idx[k][0]].id)):
        j, i = pairs_idx[k]
        charger, mbs = chargers[j], mbs_list[i]
        d = distance(charger.position, mbs.position)
        window = max(timing.mbs_phase_s - travel_time(d, charger.speed), 0.0)
        budget = charger.residual - travel_energy(d, charger.speed, charger.move_power)
        eta = charger.efficiency * mbs.efficiency
        deficit = remaining.get(i, mbs.deficit)
        transfers[k] = max(min(budget, deficit / eta, mbs.charge_power_max * window), 0.0)
        remaining[i] = max(deficit - transfers[k] * eta, 0.0)
    return [(mbs_list[i].id, chargers[j].id, t) for (j, i), t in zip(pairs_idx, transfers)]


def check_stage2(
    pairs: list[tuple[str, str, float]],
    chargers: list[ChargerDrone],
    mbs_list: list[MbsDrone],
) -> list[str]:
    """Stage-2 feasibility of (mbs_id, charger_id, transfer_j) pairs: one
    message per violated constraint, empty when feasible.

    Checks plates per MBS drone, one MBS drone per charger, transfers >= 0,
    delivered energy (transfer times both efficiencies) within each
    drone's deficit, and energy sent within each charger's residual, the
    energy sums with a 1e-9 J slack.  Each check is written so that a NaN
    fails it.
    """
    slack = 1e-9
    charger_by_id = {c.id: c for c in chargers}
    mbs_by_id = {m.id: m for m in mbs_list}
    per_mbs: dict[str, list] = {}  # mbs_id -> [chargers, joules delivered]
    per_charger: dict[str, list] = {}  # charger_id -> [MBS drones, joules sent]
    violations = []
    for mbs_id, charger_id, transfer in pairs:
        if not transfer >= 0.0:
            violations.append(f"{mbs_id}/{charger_id}: transfer {transfer} J is not >= 0")
        eta = charger_by_id[charger_id].efficiency * mbs_by_id[mbs_id].efficiency
        load = per_mbs.setdefault(mbs_id, [0, 0.0])
        load[0] += 1
        load[1] += transfer * eta
        load = per_charger.setdefault(charger_id, [0, 0.0])
        load[0] += 1
        load[1] += transfer
    for mbs_id, (count, delivered) in per_mbs.items():
        mbs = mbs_by_id[mbs_id]
        if not (count <= mbs.plates and delivered <= mbs.deficit + slack):
            violations.append(f"{mbs_id}: {count} chargers on {mbs.plates} plates, {delivered} J for {mbs.deficit} J")
    for charger_id, (count, sent) in per_charger.items():
        charger = charger_by_id[charger_id]
        if not (count == 1 and sent <= charger.residual + slack):
            violations.append(f"{charger_id}: {count} MBS drones, {sent} J sent of {charger.residual} J")
    return violations


def stage2_brute_force(
    chargers: list[ChargerDrone],
    mbs_list: list[MbsDrone],
    timing: TimingConfig,
    mode: str = "allocate",
    eps: float = VALUE_EPS_J,
) -> Stage2Assignment:
    """Exhaustive stage-2 optimum; oracle for small instances only.

    Enumerates every match-index combination satisfying the plate and
    uniqueness constraints, scores each by the mode's objective (with the
    matched pair-score total as tiebreak), and applies the mode's transfer
    rule to the winner.  Pairs are scored by the scalar ``pair_value``,
    independently of ``pair_value_matrix``.
    """
    if len(chargers) > 5 or len(mbs_list) > 4:
        raise InstanceTooLargeError("stage-2 oracle bound: <= 5 chargers and <= 4 MBS drones")
    if mode not in ("literal", "allocate"):
        raise InvalidParameterError(f"unknown stage-2 mode {mode!r}")
    live = [m for m in mbs_list if not m.dropped]
    weights = np.array(
        [[pair_value(c, m, timing.mbs_phase_s, 0.0, eps).value for m in live] for c in chargers], dtype=float
    ).reshape(len(chargers), len(live))
    total_value = float(weights.sum())
    choices = [[None] + [i for i in range(len(live)) if weights[j, i] > 0.0] for j in range(len(chargers))]
    best_weight = -1.0
    best_combo: tuple[int | None, ...] = tuple([None] * len(chargers))
    for combo in itertools.product(*choices):
        used = [0] * len(live)
        ok = True
        for i in combo:
            if i is not None:
                used[i] += 1
                if used[i] > live[i].plates:
                    ok = False
                    break
        if not ok:
            continue
        weight = sum(weights[j, i] for j, i in enumerate(combo) if i is not None)
        if weight > best_weight:
            best_weight = weight
            best_combo = combo
    matching = [(live[i].id, chargers[j].id) for j, i in enumerate(best_combo) if i is not None]
    matched_value = max(best_weight, 0.0)
    if mode == "literal":
        pairs = [(mbs_id, charger_id, 0.0) for mbs_id, charger_id in matching]
        objective = total_value
    else:
        pairs = allocate_transfers(matching, chargers, live, timing, eps)
        objective = matched_value
    return Stage2Assignment(pairs=pairs, objective=objective, matched_value=matched_value, mode=mode)


def baseline_match(
    strategy: str,
    stage: int,
    towers: list[Tower] | None = None,
    chargers: list[ChargerDrone] | None = None,
    mbs_list: list[MbsDrone] | None = None,
    timing: TimingConfig | None = None,
    rng: random.Random | None = None,
    eps: float = VALUE_EPS_J,
) -> Stage1Assignment | Stage2Assignment:
    """Random and greedy comparison schedulers.

    ``random`` draws a feasible assignment from the supplied generator.
    ``greedy_best`` serves drones in ascending residual-energy order (the
    needy first); ``greedy_worst`` in descending order.  Stage-1 baselines
    pick the nearest free tower for each served charger (the greedy rule of
    ``stage1_match``, not a delivered-energy optimum); stage-2 baselines
    give each served MBS drone the fullest chargers that can actually
    reach it, with transfers filled by the allocate rule.
    """
    if strategy not in ("random", "greedy_best", "greedy_worst"):
        raise InvalidParameterError(f"unknown baseline strategy {strategy!r}")
    if strategy == "random" and rng is None:
        raise InvalidParameterError("random baseline needs a seeded generator")
    if stage == 1:
        return _baseline_stage1(strategy, towers or [], chargers or [], rng)
    if stage == 2:
        if timing is None:
            raise InvalidParameterError("stage-2 baseline needs timing")
        return _baseline_stage2(strategy, chargers or [], mbs_list or [], timing, rng, eps)
    raise InvalidParameterError(f"stage must be 1 or 2, got {stage}")


def _baseline_stage1(
    strategy: str,
    towers: list[Tower],
    chargers: list[ChargerDrone],
    rng: random.Random | None,
) -> Stage1Assignment:
    order = list(range(len(chargers)))
    if strategy == "random":
        rng.shuffle(order)
    elif strategy == "greedy_best":
        order.sort(key=lambda j: (chargers[j].residual, j))
    else:
        order.sort(key=lambda j: (-chargers[j].residual, j))
    free = [t.plates for t in towers]
    pairs: list[tuple[str, str]] = []
    objective = 0.0
    for j in order:
        open_towers = [k for k in range(len(towers)) if free[k] > 0]
        if not open_towers:
            break
        if strategy == "random":
            k = open_towers[rng.randrange(len(open_towers))]
        else:
            k = min(open_towers, key=lambda k: (distance(towers[k].position, chargers[j].position), k))
        free[k] -= 1
        pairs.append((towers[k].id, chargers[j].id))
        objective += chargers[j].deficit
    return Stage1Assignment(pairs=pairs, objective=objective)


def _baseline_stage2(
    strategy: str,
    chargers: list[ChargerDrone],
    mbs_list: list[MbsDrone],
    timing: TimingConfig,
    rng: random.Random | None,
    eps: float,
) -> Stage2Assignment:
    live = [m for m in mbs_list if not m.dropped]
    weights = pair_value_matrix(chargers, live, timing.mbs_phase_s, eps)
    matching_idx: list[tuple[int, int]] = []
    if strategy == "random":
        charger_order = list(range(len(chargers)))
        rng.shuffle(charger_order)
        free = [m.plates for m in live]
        for j in charger_order:
            open_mbs = [i for i in range(len(live)) if free[i] > 0 and weights[j, i] > 0.0]
            if not open_mbs:
                continue
            i = open_mbs[rng.randrange(len(open_mbs))]
            free[i] -= 1
            matching_idx.append((j, i))
    else:
        available = set(range(len(chargers)))
        if strategy == "greedy_best":
            mbs_order = sorted(range(len(live)), key=lambda i: (live[i].residual, i))
        else:
            mbs_order = sorted(range(len(live)), key=lambda i: (-live[i].residual, i))
        for i in mbs_order:
            for _ in range(live[i].plates):
                reachable = [j for j in available if weights[j, i] > 0.0]
                if not reachable:
                    break
                j = max(reachable, key=lambda j: (chargers[j].residual, -j))
                available.discard(j)
                matching_idx.append((j, i))
    scores = [weights[j, i] for j, i in matching_idx]
    matched_value = float(sum(scores))
    pairs = _fill_transfers(matching_idx, scores, chargers, live, timing)
    return Stage2Assignment(pairs=pairs, objective=matched_value, matched_value=matched_value, mode="allocate")


# ---------------------------------------------------------------------------
# Instance import/export: one entity per line, key=value fields, so oracle
# suites can run against instances stored as plain text.

def dump_instance(
    towers: list[Tower],
    chargers: list[ChargerDrone],
    mbs_list: list[MbsDrone],
    timing: TimingConfig,
) -> str:
    lines = ["# uavcharge matching instance v1"]
    lines.append(
        "timing unit={} tower_phase={} mbs_phase={} slot={} slots={}".format(
            timing.unit_s, timing.tower_phase_s, timing.mbs_phase_s, timing.slot_s, timing.slots_per_unit
        )
    )
    for t in towers:
        lines.append(
            f"tower {t.id} x={t.position.x!r} y={t.position.y!r} z={t.position.z!r} "
            f"plates={t.plates} power={t.charge_power!r} eff={t.efficiency!r}"
        )
    for c in chargers:
        lines.append(
            f"charger {c.id} x={c.position.x!r} y={c.position.y!r} z={c.position.z!r} "
            f"capacity={c.capacity!r} residual={c.residual!r} speed={c.speed!r} "
            f"eff={c.efficiency!r} move_power={c.move_power!r}"
        )
    for m in mbs_list:
        lines.append(
            f"mbs {m.id} x={m.position.x!r} y={m.position.y!r} z={m.position.z!r} "
            f"capacity={m.capacity!r} residual={m.residual!r} eff={m.efficiency!r} "
            f"plates={m.plates} hover={m.hover_power!r} charge_max={m.charge_power_max!r}"
        )
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> tuple[list[Tower], list[ChargerDrone], list[MbsDrone], TimingConfig]:
    towers: list[Tower] = []
    chargers: list[ChargerDrone] = []
    mbs_list: list[MbsDrone] = []
    timing = TimingConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        kind = tokens[0]
        try:
            if kind == "timing":
                kv = dict(tok.split("=", 1) for tok in tokens[1:])
                timing = TimingConfig(
                    unit_s=float(kv["unit"]),
                    tower_phase_s=float(kv["tower_phase"]),
                    mbs_phase_s=float(kv["mbs_phase"]),
                    slot_s=float(kv["slot"]),
                    slots_per_unit=int(kv["slots"]),
                )
            elif kind in ("tower", "charger", "mbs"):
                entity_id = tokens[1]
                kv = dict(tok.split("=", 1) for tok in tokens[2:])
                pos = Position(float(kv["x"]), float(kv["y"]), float(kv["z"]))
                if kind == "tower":
                    towers.append(
                        Tower(entity_id, pos, plates=int(kv["plates"]), charge_power=float(kv["power"]), efficiency=float(kv["eff"]))
                    )
                elif kind == "charger":
                    chargers.append(
                        ChargerDrone(
                            entity_id, pos,
                            capacity=float(kv["capacity"]), residual=float(kv["residual"]),
                            speed=float(kv["speed"]), efficiency=float(kv["eff"]),
                            move_power=float(kv["move_power"]),
                        )
                    )
                else:
                    mbs_list.append(
                        MbsDrone(
                            entity_id, pos,
                            capacity=float(kv["capacity"]), residual=float(kv["residual"]),
                            efficiency=float(kv["eff"]), plates=int(kv["plates"]),
                            hover_power=float(kv["hover"]), charge_power_max=float(kv["charge_max"]),
                        )
                    )
            else:
                raise ValueError(f"unknown record kind {kind!r}")
        except (KeyError, ValueError, IndexError) as exc:
            raise InvalidParameterError(f"instance line {lineno}: {exc}") from exc
    return towers, chargers, mbs_list, timing


# ---------------------------------------------------------------------------
# Random instance generators for the oracle suites.  Deliberately include
# full batteries, near-empty MBS drones, and out-of-range placements so
# the zero-value clamps get exercised.

def random_stage1_instance(
    rng: random.Random,
    max_towers: int = 2,
    max_chargers: int = 5,
    max_plates: int = 3,
) -> tuple[list[Tower], list[ChargerDrone]]:
    towers = [
        Tower(
            f"T{k}",
            Position(rng.uniform(0, 1299), rng.uniform(0, 750), 0.0),
            plates=rng.randint(1, max_plates),
            charge_power=rng.uniform(50, 200),
            efficiency=rng.uniform(0.5, 1.0),
        )
        for k in range(rng.randint(1, max_towers))
    ]
    chargers = []
    for j in range(rng.randint(0, max_chargers)):
        capacity = rng.uniform(1e4, 4e5)
        frac = 1.0 if rng.random() < 0.15 else rng.random()
        chargers.append(
            ChargerDrone(
                f"C{j}",
                Position(rng.uniform(0, 1299), rng.uniform(0, 750), rng.uniform(0, 150)),
                capacity=capacity,
                residual=capacity * frac,
                speed=rng.uniform(5, 25),
                efficiency=rng.uniform(0.5, 1.0),
                move_power=rng.uniform(50, 300),
            )
        )
    return towers, chargers


def random_stage2_instance(
    rng: random.Random,
    max_chargers: int = 5,
    max_mbs: int = 4,
    max_plates: int = 2,
) -> tuple[list[ChargerDrone], list[MbsDrone], TimingConfig]:
    timing = TimingConfig()
    chargers = []
    for j in range(rng.randint(0, max_chargers)):
        capacity = rng.uniform(1e4, 4e5)
        frac = 0.0 if rng.random() < 0.1 else rng.random()
        chargers.append(
            ChargerDrone(
                f"C{j}",
                Position(rng.uniform(0, 2000), rng.uniform(0, 1200), rng.uniform(0, 150)),
                capacity=capacity,
                residual=capacity * frac,
                speed=rng.uniform(5, 25),
                efficiency=rng.uniform(0.5, 1.0),
                move_power=rng.uniform(50, 300),
            )
        )
    mbs_list = []
    for i in range(rng.randint(0, max_mbs)):
        capacity = rng.uniform(1e4, 4e5)
        frac = 0.001 if rng.random() < 0.1 else rng.random()
        mbs_list.append(
            MbsDrone(
                f"M{i}",
                Position(rng.uniform(0, 2000), rng.uniform(0, 1200), 100.0),
                capacity=capacity,
                residual=capacity * frac,
                efficiency=rng.uniform(0.5, 1.0),
                plates=rng.randint(1, max_plates),
                hover_power=rng.uniform(0, 200),
            )
        )
    return chargers, mbs_list, timing
