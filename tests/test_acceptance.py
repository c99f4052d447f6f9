"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.
Every tolerance and runtime budget is asserted inside the test body.
"""

import contextlib
import random
import time

import pytest

from uavcharge import cli, matching, metrics, powerctl, simengine


@contextlib.contextmanager
def report(number: int, title: str):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number:2d} [{title}]: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"\ncriterion {number:2d} [{title}]: PASS ({time.time() - t0:.1f}s)")


def test_criterion_01_stage1_oracle_equivalence():
    with report(1, "stage-1 oracle equivalence, 200 instances"):
        t0 = time.time()
        rng = random.Random("acceptance/stage1")
        for _ in range(200):
            towers, chargers = matching.random_stage1_instance(
                rng, max_towers=2, max_chargers=5, max_plates=3
            )
            fast = matching.stage1_match(towers, chargers)
            slow = matching.stage1_brute_force(towers, chargers)
            assert fast.objective == pytest.approx(slow.objective, rel=1e-9, abs=1e-9)
        assert time.time() - t0 < 5.0


def test_criterion_02_stage2_oracle_equivalence():
    with report(2, "stage-2 oracle equivalence, 200 instances x 2 modes"):
        t0 = time.time()
        for mode in ("allocate", "literal"):
            rng = random.Random("acceptance/stage2")
            for _ in range(200):
                chargers, mbs_list, timing = matching.random_stage2_instance(
                    rng, max_chargers=5, max_mbs=4, max_plates=2
                )
                fast = matching.stage2_match(chargers, mbs_list, timing, mode=mode)
                slow = matching.stage2_brute_force(chargers, mbs_list, timing, mode=mode)
                assert fast.objective == pytest.approx(slow.objective, rel=1e-9, abs=1e-9)
                assert fast.matched_value == pytest.approx(slow.matched_value, rel=1e-9, abs=1e-9)
                assert matching.check_stage2(fast.pairs, chargers, mbs_list) == []
        assert time.time() - t0 < 30.0


def test_criterion_03_nonconvexity_witness():
    with report(3, "eigenvalue witness, 20 random efficiency pairs"):
        rng = random.Random("acceptance/hessian")
        for _ in range(20):
            eta_c, eta_m = rng.uniform(0.01, 1.0), rng.uniform(0.01, 1.0)
            obj, con = matching.hessian_eigenvalues(eta_c, eta_m)
            assert obj[0] == pytest.approx(1.0, abs=1e-12)
            assert obj[1] == pytest.approx(-1.0, abs=1e-12)
            assert con[0] == pytest.approx(eta_c * eta_m, abs=1e-12)
            assert con[1] == pytest.approx(-eta_c * eta_m, abs=1e-12)
        _, con = matching.hessian_eigenvalues(0.81, 0.81)
        assert con[0] == pytest.approx(0.6561, abs=1e-12)
        assert con[1] == pytest.approx(-0.6561, abs=1e-12)


def test_criterion_04_stage1_fairness_dominance():
    with report(4, "stage-1 fairness vs random, 20 runs"):
        t0 = time.time()
        wins = 0
        for r in range(20):
            profiles = {}
            for policy in ("proposed", "random"):
                spec = simengine.charger_fairness_spec(seed=100 + r, stage1_policy=policy)
                result = simengine.run(spec.build())
                profiles[policy] = metrics.residual_stats(result.snapshots[-1], "charger")
            proposed, rand = profiles["proposed"], profiles["random"]
            if proposed.mean > rand.mean and proposed.stddev < rand.stddev:
                wins += 1
        assert wins >= 19, f"fairness dominance in only {wins}/20 runs"
        assert time.time() - t0 < 60.0


def test_criterion_05_stage2_dominance():
    with report(5, "stage-2 mean residual vs both greedy baselines, 20 runs"):
        t0 = time.time()
        wins = 0
        for r in range(20):
            means = {}
            for policy in ("proposed", "greedy_best", "greedy_worst"):
                spec = simengine.mbs_dominance_spec(seed=500 + r, stage2_policy=policy)
                result = simengine.run(spec.build())
                means[policy] = metrics.residual_stats(result.snapshots[-1], "mbs").mean
            if means["proposed"] > means["greedy_best"] and means["proposed"] > means["greedy_worst"]:
                wins += 1
        assert wins >= 19, f"stage-2 dominance in only {wins}/20 runs"
        assert time.time() - t0 < 120.0


def test_criterion_06_greedy_worst_starvation():
    with report(6, "greedy-worst starves half the fleet"):
        spec = simengine.starvation_spec(seed=42, horizon=60)
        scenario = spec.build()
        result = simengine.run(scenario)
        served = {c.id: 0 for c in scenario.chargers}
        credit = {c.id: 0.0 for c in scenario.chargers}
        for snap in result.snapshots:
            for _, charger_id in snap.stage1_pairs:
                served[charger_id] += 1
            for charger_id, flows in snap.charger_flows.items():
                credit[charger_id] += flows.tower_credit
        most_served = max(served, key=lambda c: (served[c], c))
        final_residual, capacity = result.snapshots[-1].charger_energy[most_served]
        assert final_residual == pytest.approx(capacity)
        zero_fraction = sum(1 for c in credit if credit[c] == 0.0) / len(credit)
        assert zero_fraction >= 0.5, f"only {zero_fraction:.0%} of chargers starved"


def test_criterion_07_coverage_time_monotone():
    with report(7, "coverage-time sweep 1..50 is non-increasing"):
        t0 = time.time()
        spec = simengine.sweep_spec(seed=3)
        rows = simengine.sweep_mbs_count(spec, list(range(1, 51)))
        horizon_mark = spec.horizon + 1  # survived sorts above any real drop unit
        coverage = [horizon_mark if cov is None else cov for _, cov in rows]
        for k in range(len(coverage) - 1):
            assert coverage[k + 1] <= coverage[k], (
                f"coverage increased from {coverage[k]} to {coverage[k + 1]} at |M|={k + 2}"
            )
        assert any(coverage[k + 1] < coverage[k] for k in range(0, 25)), "no strict decrease at |M| <= 25"
        tail = coverage[-10:]
        assert max(tail) - min(tail) <= 1, f"trailing range spans {max(tail) - min(tail)} unit times"
        assert time.time() - t0 < 300.0


def test_criterion_08_queue_stability_triptych():
    with report(8, "min-PA diverges, Max-PA and DPP stay stable"):
        t0 = time.time()
        arrivals = simengine.stability_spec(seed=11).arrival.mean_bits
        cfg = simengine.stability_spec(seed=11).build().dpp
        b_min = powerctl.service_rate(powerctl.baseline_policy("min_pa", cfg), cfg.channel, cfg.slot_s)
        b_max = powerctl.service_rate(powerctl.baseline_policy("max_pa", cfg), cfg.channel, cfg.slot_s)
        assert b_min < arrivals < b_max, "scenario must straddle the service rates"

        backlogs = {}
        for policy in ("min_pa", "max_pa", "dpp"):
            spec = simengine.stability_spec(seed=11, power_policy=policy)
            result = simengine.run(spec.build())
            backlogs[policy] = [q for _, q in metrics.queue_trace(result, "M00")]

        diverging = metrics.stability_verdict(backlogs["min_pa"])
        assert diverging.verdict == "diverging"
        assert diverging.ratio > 1.10

        capped = metrics.stability_verdict(backlogs["max_pa"])
        assert capped.verdict == "stable"
        assert sum(backlogs["max_pa"]) / len(backlogs["max_pa"]) < arrivals

        controlled = metrics.stability_verdict(backlogs["dpp"])
        assert controlled.verdict == "stable"
        n = len(backlogs["dpp"])
        third = backlogs["dpp"][n // 2: 3 * n // 4]
        fourth = backlogs["dpp"][3 * n // 4:]
        third_mean = sum(third) / len(third)
        fourth_mean = sum(fourth) / len(fourth)
        assert abs(fourth_mean - third_mean) <= 0.10 * third_mean
        # a visible ramp-up happened: the trace starts empty and the
        # first-quarter mean sits well below the plateau
        assert backlogs["dpp"][0] == 0.0
        early_mean = sum(backlogs["dpp"][: n // 4]) / (n // 4)
        assert early_mean < 0.8 * fourth_mean
        assert time.time() - t0 < 60.0


def test_criterion_09_dpp_limit_behaviors():
    with report(9, "controller limits at empty and saturated queues, 100 configs"):
        rng = random.Random("acceptance/limits")
        for _ in range(100):
            k = rng.randint(2, 12)
            actions = tuple(sorted(rng.sample([float(x) for x in range(0, 400, 5)], k)))
            cfg = powerctl.DppConfig(
                v=rng.uniform(1e3, 1e12),
                action_set=actions,
                slot_s=rng.choice([0.5, 1.0, 2.0]),
                channel=powerctl.ChannelModel(
                    bandwidth_hz=rng.uniform(1e4, 1e7),
                    gain=rng.uniform(0.01, 10.0),
                    noise_w=rng.uniform(0.1, 100.0),
                ),
            )
            assert powerctl.dpp_decide(0.0, cfg) == min(actions)
            saturated = powerctl.saturation_backlog(cfg) * (1.0 + 1e-9) + 1.0
            assert powerctl.dpp_decide(saturated, cfg) == max(actions)


def test_criterion_10_conservation_audit():
    with report(10, "per-step energy conservation on the default scenario"):
        t0 = time.time()
        scenario = simengine.default_spec(seed=7).build()
        assert len(scenario.mbs_drones) == 25 and len(scenario.chargers) == 50 and len(scenario.towers) == 1
        assert scenario.horizon * scenario.timing.unit_s == pytest.approx(60.0 * 60.0)
        result = simengine.run(scenario)
        prev_c = {c.id: c.residual for c in scenario.chargers}
        prev_m = {m.id: m.residual for m in scenario.mbs_drones}
        caps_m = {m.id: m.capacity for m in scenario.mbs_drones}
        for snap in result.snapshots:
            for cid, (residual, capacity) in snap.charger_energy.items():
                flows = snap.charger_flows[cid]
                assert flows.tower_credit >= 0.0
                assert flows.transfers_sent >= 0.0
                assert flows.travel_spent >= 0.0
                expected = prev_c[cid] + flows.tower_credit - flows.transfers_sent - flows.travel_spent
                assert abs(residual - max(expected, 0.0)) <= 1e-6
                assert -1e-9 <= residual <= capacity + 1e-9
                prev_c[cid] = residual
            for mid, (residual, capacity) in snap.mbs_energy.items():
                flows = snap.mbs_flows[mid]
                expected = prev_m[mid] + flows.received - flows.hover_drain - flows.tx_drain
                assert abs(residual - min(max(expected, 0.0), caps_m[mid])) <= 1e-6
                assert 0.0 <= residual <= capacity + 1e-9
                prev_m[mid] = residual
        assert time.time() - t0 < 10.0


def test_criterion_11_determinism_byte_identical(tmp_path):
    with report(11, "same seed, byte-identical artifacts"):
        config = tmp_path / "scenario.cfg"
        config.write_text("seed = 23\nhorizon = 4\ncharger.count = 8\nmbs.count = 5\n")
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", str(config), "--out", str(out2)]) == 0
        names = sorted(p.name for p in out1.iterdir())
        assert names == sorted(p.name for p in out2.iterdir())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), f"{name} differs"
