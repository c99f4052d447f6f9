import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uavcharge.core import InvalidParameterError
from uavcharge.powerctl import (
    ArrivalModel,
    ChannelModel,
    DppConfig,
    QueueState,
    arrival_block,
    baseline_policy,
    dpp_decide,
    dpp_objective,
    queue_step,
    run_queues,
    saturation_backlog,
    service_rate,
    tx_energy,
)

UNIT_CHANNEL = ChannelModel(bandwidth_hz=1.0, gain=1.0, noise_w=1.0)


def test_tx_energy():
    assert tx_energy(0.0, 1.0) == 0.0
    assert tx_energy(2.0, 1.0) == pytest.approx(2.0)
    assert tx_energy(160.0, 0.5) == pytest.approx(80.0)


def test_service_rate_shannon_points():
    channel = ChannelModel(bandwidth_hz=1e6, gain=1.0, noise_w=1.0)
    assert service_rate(0.0, channel, 1.0) == 0.0
    assert service_rate(1.0, channel, 1.0) == pytest.approx(1e6, rel=1e-12)
    assert service_rate(3.0, channel, 1.0) == pytest.approx(2e6, rel=1e-12)


def test_service_rate_increasing_and_concave():
    channel = ChannelModel(bandwidth_hz=1e5, gain=1.0, noise_w=10.0)
    rates = [service_rate(a, channel, 1.0) for a in (0.0, 10.0, 20.0, 30.0, 40.0)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    gains = [b - a for a, b in zip(rates, rates[1:])]
    assert all(later < earlier for earlier, later in zip(gains, gains[1:]))


def test_dpp_objective_plugin():
    cfg = DppConfig(v=10.0, action_set=(0.0, 1.0, 2.0), slot_s=1.0, channel=UNIT_CHANNEL)
    assert dpp_objective(0.0, 1.0, cfg) == pytest.approx(10.0)
    assert dpp_objective(20.0, 1.0, cfg) == pytest.approx(10.0 - 20.0)
    cfg0 = DppConfig(v=0.0, action_set=(0.0, 1.0), slot_s=1.0, channel=UNIT_CHANNEL)
    assert dpp_objective(5.0, 1.0, cfg0) == pytest.approx(-5.0)


def test_dpp_decide_enumerated_scores():
    # scores at Q=20: {0, -10, 20 - 20*log2(3) = -11.699}; the last wins
    cfg = DppConfig(v=10.0, action_set=(0.0, 1.0, 2.0), slot_s=1.0, channel=UNIT_CHANNEL)
    assert dpp_objective(20.0, 2.0, cfg) == pytest.approx(20.0 - 20.0 * math.log2(3.0))
    assert dpp_decide(20.0, cfg) == 2.0


def test_dpp_decide_empty_queue_sleeps():
    cfg = DppConfig(v=5.0, action_set=(0.0, 10.0, 160.0))
    assert dpp_decide(0.0, cfg) == 0.0


def test_dpp_decide_huge_queue_maxes_out():
    cfg = DppConfig(v=5.0, action_set=(0.0, 10.0, 160.0))
    assert dpp_decide(1e18, cfg) == 160.0


def test_dpp_decide_tie_breaks_to_lower_power():
    # v=0 and Q=0 scores every action 0; the lowest power must win
    cfg = DppConfig(v=0.0, action_set=(0.0, 1.0, 2.0))
    assert dpp_decide(0.0, cfg) == 0.0


def test_dpp_monotone_service_in_backlog():
    rng = random.Random("monotone")
    for _ in range(50):
        k = rng.randint(2, 10)
        actions = tuple(sorted(rng.sample([float(x) for x in range(0, 200, 5)], k)))
        cfg = DppConfig(
            v=rng.uniform(1e2, 1e10),
            action_set=actions,
            slot_s=1.0,
            channel=ChannelModel(bandwidth_hz=rng.uniform(1e4, 1e6), gain=1.0, noise_w=rng.uniform(1.0, 50.0)),
        )
        backlogs = sorted(rng.uniform(0, 1e9) for _ in range(6))
        rates = [service_rate(dpp_decide(q, cfg), cfg.channel, cfg.slot_s) for q in backlogs]
        assert all(later >= earlier - 1e-12 for earlier, later in zip(rates, rates[1:]))


def test_dpp_scaling_invariance():
    cfg = DppConfig(v=3.0e4, action_set=(0.0, 10.0, 50.0, 90.0))
    for q in (0.0, 1e3, 1e5, 1e7):
        scaled = DppConfig(v=cfg.v * 137.0, action_set=cfg.action_set)
        assert dpp_decide(q, cfg) == dpp_decide(q * 137.0, scaled)


def test_saturation_backlog_threshold():
    cfg = DppConfig(v=1e9, action_set=(0.0, 10.0, 80.0, 160.0))
    q_star = saturation_backlog(cfg)
    assert dpp_decide(q_star * (1.0 + 1e-9) + 1.0, cfg) == 160.0
    # just below the largest crossover some cheaper action still wins
    assert dpp_decide(q_star * 0.99, cfg) != 160.0


def test_queue_step():
    assert queue_step(5.0, 0.0, 10.0) == 0.0
    assert queue_step(0.0, 7.0, 0.0) == 7.0
    assert queue_step(100.0, 20.0, 30.0) == pytest.approx(90.0)


@given(
    q=st.floats(0, 1e9), a=st.floats(0, 1e6), b=st.floats(0, 1e6),
)
def test_queue_step_never_negative(q, a, b):
    assert queue_step(q, a, b) >= 0.0


def test_queue_step_rejects_negative_flow():
    with pytest.raises(InvalidParameterError):
        queue_step(1.0, -1.0, 0.0)
    with pytest.raises(InvalidParameterError):
        queue_step(1.0, 0.0, -1.0)


def test_baseline_policies():
    cfg = DppConfig(action_set=(0.0, 1.0, 2.0))
    assert baseline_policy("max_pa", cfg) == 2.0
    assert baseline_policy("min_pa", cfg) == 1.0
    single = DppConfig(action_set=(0.5,))
    assert baseline_policy("max_pa", single) == 0.5
    assert baseline_policy("min_pa", single) == 0.5
    with pytest.raises(InvalidParameterError):
        baseline_policy("median_pa", cfg)


def test_arrival_models():
    constant = ArrivalModel("constant", 500.0)
    assert arrival_block(constant, [random.Random(3)] * 2, 4).tolist() == [[500.0, 500.0]] * 4
    stochastic = ArrivalModel("random", 500.0)
    block = arrival_block(stochastic, [random.Random(3), random.Random(4)], 100)
    assert block.shape == (100, 2)
    assert ((0.0 <= block) & (block <= 1000.0)).all()
    # column k is stream k drawn in slot order, exactly as a per-slot loop over the queues draws it
    rngs = [random.Random(3), random.Random(4)]
    assert block.tolist() == [[rng.uniform(0.0, 1000.0) for rng in rngs] for _ in range(100)]
    assert arrival_block(stochastic, [], 5).shape == (5, 0)


@st.composite
def dpp_configs(draw):
    # built like acceptance criterion 9's generator, plus v = 0 (every score ties at an empty queue)
    # and slot lengths whose energies are inexact, so the order of the transmit-energy sum shows
    actions = draw(st.lists(st.sampled_from([float(x) for x in range(0, 400, 5)]), min_size=2, max_size=12,
                            unique=True))
    return DppConfig(
        v=draw(st.one_of(st.just(0.0), st.floats(1e3, 1e12))),
        action_set=tuple(sorted(actions)),
        slot_s=draw(st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.01, 10.0)),
        channel=ChannelModel(
            bandwidth_hz=draw(st.floats(1e4, 1e7)),
            gain=draw(st.floats(0.01, 10.0)),
            noise_w=draw(st.floats(0.1, 100.0)),
        ),
    )


def decision_points(cfg: DppConfig) -> list[float]:
    """0, every pairwise crossover backlog and its float neighbours, and backlogs past saturation."""
    table = [(tx_energy(a, cfg.slot_s), service_rate(a, cfg.channel, cfg.slot_s)) for a in cfg.action_set]
    points = [0.0]
    for i, (e_i, s_i) in enumerate(table):
        for e_j, s_j in table[i + 1:]:
            q = cfg.v * (e_j - e_i) / (s_j - s_i)
            points += [q, math.nextafter(q, 0.0), math.nextafter(q, math.inf)]
    q_max = saturation_backlog(cfg)
    return points + [math.nextafter(q_max, math.inf), 2.0 * q_max + 1.0, 1e15]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_run_queues_matches_scalar_reference(data):
    cfg = data.draw(dpp_configs())
    policy = data.draw(st.sampled_from(["dpp", "max_pa", "min_pa"]))
    points = decision_points(cfg)
    # a single queue often: its [T, 1] energy column is where a pairwise sum would differ
    n = data.draw(st.sampled_from([1, 2]) | st.integers(1, 16))
    backlog0 = data.draw(st.lists(st.sampled_from(points) | st.floats(0.0, 1e12), min_size=n, max_size=n))
    slots = data.draw(st.integers(1, 32))
    arrivals = np.array(data.draw(st.lists(
        st.lists(st.sampled_from([0.0, *points]) | st.floats(0.0, 1e9), min_size=n, max_size=n),
        min_size=slots, max_size=slots,
    )))
    queues = run_queues(backlog0, arrivals, cfg, policy)
    assert queues.backlog.shape == queues.action.shape == (slots, n)
    for k, b in enumerate(backlog0):
        tx = 0.0
        for t in range(slots):
            assert queues.backlog[t, k].hex() == b.hex()
            alpha = dpp_decide(b, cfg) if policy == "dpp" else baseline_policy(policy, cfg)
            assert cfg.action_set[queues.action[t, k]] == alpha
            b = queue_step(b, arrivals[t, k].item(), service_rate(alpha, cfg.channel, cfg.slot_s))
            tx += tx_energy(alpha, cfg.slot_s)
        assert queues.final[k].hex() == b.hex()
        assert queues.tx[k].hex() == tx.hex()


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        DppConfig(action_set=())
    with pytest.raises(InvalidParameterError):
        DppConfig(action_set=(1.0, 1.0))
    with pytest.raises(InvalidParameterError):
        DppConfig(action_set=(2.0, 1.0))
    with pytest.raises(InvalidParameterError):
        DppConfig(v=-1.0)
    with pytest.raises(InvalidParameterError):
        QueueState(backlog=-1.0)
    with pytest.raises(InvalidParameterError):
        ArrivalModel("bursty", 1.0)
