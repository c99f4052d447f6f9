import hashlib
import io
import json
import os
import stat

import numpy as np
import pytest

from uavcharge import matching
from uavcharge.cli import (
    ConfigError,
    _float_text,
    config_hash,
    emit_scenario,
    load_scenario,
    load_scenario_text,
    main,
    oracle_check,
)


def test_empty_config_gives_table_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    spec, provenance = load_scenario(str(path))
    assert spec.mbs_count == 25
    assert spec.charger_count == 50
    assert spec.tower_count == 1
    assert spec.tower_plates == 4
    assert spec.map_width_m == 1299.0
    assert spec.altitude_m == 100.0
    assert provenance == []


def test_battery_conversion_echoed():
    spec, provenance = load_scenario_text(
        "charger.battery_mah = 5870\ncharger.battery_volts = 17.4\n"
    )
    assert spec.charger_capacity_j == pytest.approx(367696.8)
    assert any("367696.8 J" in note for note in provenance)


def test_horizon_minutes_conversion():
    spec, provenance = load_scenario_text("horizon_minutes = 60\n")
    assert spec.horizon == 30  # 60 min over 120 s unit times
    assert any("60 min -> 30 unit times" in note for note in provenance)
    with pytest.raises(ConfigError):
        load_scenario_text("horizon = 5\nhorizon_minutes = 60\n")
    with pytest.raises(ConfigError):
        load_scenario_text("horizon_minutes = 1\n")  # not a whole unit time


def test_validation_errors_are_config_errors():
    with pytest.raises(ConfigError):
        load_scenario_text("charger.efficiency = -0.5\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_scenario_text("no equals sign here\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_scenario_text("charger.wings = 4\n")
    with pytest.raises(ConfigError):
        load_scenario_text("init.min_frac = 0.9\ninit.max_frac = 0.2\n")


def test_scenario_round_trip():
    spec, _ = load_scenario_text(
        "seed = 17\nhorizon = 9\ndpp.actions = 0:40:20\nmbs.plates = 2\n"
        "policy.stage2 = greedy_best\ndpp.v = 123.5\n"
    )
    text = emit_scenario(spec)
    again, _ = load_scenario_text(text)
    assert again == spec
    assert config_hash(again) == config_hash(spec)


def test_action_range_parsing():
    spec, _ = load_scenario_text("dpp.actions = 0:30:10\n")
    assert spec.dpp_actions == (0.0, 10.0, 20.0, 30.0)
    spec, _ = load_scenario_text("dpp.actions = 1,5,9\n")
    assert spec.dpp_actions == (1.0, 5.0, 9.0)
    with pytest.raises(ConfigError):
        load_scenario_text("dpp.actions = 0:30:0\n")
    with pytest.raises(ConfigError):  # action sets must be sorted ascending
        load_scenario_text("dpp.actions = 5,1,9\n")


SMALL = "seed = 4\nhorizon = 2\ncharger.count = 4\nmbs.count = 3\n"


def test_simulate_writes_manifest_and_artifacts(tmp_path):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(SMALL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert names == ["manifest.json", "matchings.csv", "queues.csv", "snapshots.csv", "summary.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert manifest["config_hash"].startswith("sha256:")
    header = (out / "snapshots.csv").read_text().splitlines()
    assert header[0].startswith("# uavcharge schema=1 seed=4 config=sha256:")
    assert header[1].split(",")[:5] == ["unit_time", "entity_id", "role", "residual_j", "residual_pct"]


def test_simulate_same_seed_byte_identical(tmp_path):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(SMALL)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_json_format(tmp_path):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(SMALL)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
    snapshots = json.loads((out / "snapshots.json").read_text())
    assert snapshots["seed"] == 4
    assert snapshots["columns"][:3] == ["unit_time", "entity_id", "role"]
    assert snapshots["rows"]


def test_unwritable_output_dir_fails_cleanly(tmp_path):
    if os.geteuid() == 0:
        pytest.skip("permission bits do not bind as root")
    blocked = tmp_path / "blocked"
    blocked.mkdir()
    blocked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(SMALL)
    assert main(["simulate", "--config", str(cfg), "--out", str(blocked / "run")]) == 1
    assert not (blocked / "run").exists()


def test_output_dir_probe_rejects_file_path(tmp_path):
    clash = tmp_path / "file"
    clash.write_text("x")
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(SMALL)
    assert main(["simulate", "--config", str(cfg), "--out", str(clash)]) == 1


def test_missing_config_fails(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 1


def test_cli_overrides_apply(tmp_path):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(SMALL)
    out = tmp_path / "out"
    assert main([
        "simulate", "--config", str(cfg), "--out", str(out),
        "--seed", "99", "--baseline", "greedy-worst", "--power", "max-pa", "--mode", "literal",
        "--horizon", "1",
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert "policy.stage1 = greedy_worst" in manifest["config"]
    assert "policy.power = max_pa" in manifest["config"]
    assert "matching.mode = literal" in manifest["config"]
    assert "horizon = 1" in manifest["config"]


def test_sweep_emits_table_and_per_count_manifests(tmp_path):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(SMALL)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--counts", "1,2"]) == 0
    table = (out / "sweep.csv").read_text().splitlines()
    assert table[1] == "mbs_count,coverage_time,survived"
    assert len(table) == 4
    assert sorted(os.listdir(out / "counts")) == ["mbs001.manifest.json", "mbs002.manifest.json"]


def test_sweep_rejects_zero_count(tmp_path):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(SMALL)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s"), "--counts", "0,1"]) == 1


def test_match_commands_write_instances(tmp_path):
    cfg = tmp_path / "scen.cfg"
    cfg.write_text(SMALL)
    for stage in (1, 2):
        out = tmp_path / f"m{stage}"
        assert main([f"match-stage{stage}", "--config", str(cfg), "--out", str(out)]) == 0
        instance = (out / "instance.txt").read_text()
        towers, chargers, mbs_list, _ = matching.parse_instance(instance)
        assert len(chargers) == 4 and len(mbs_list) == 3 and len(towers) == 1
        assert (out / f"stage{stage}_assignment.csv").exists()


def test_power_control_runs(tmp_path):
    out = tmp_path / "pc"
    assert main(["power-control", "--out", str(out), "--power", "max-pa", "--horizon", "1"]) == 0
    trace = (out / "power_trace.csv").read_text().splitlines()
    assert trace[1] == "slot,backlog_bits,power_w,arrival_bits,service_bits,tx_energy_j"
    assert len(trace) == 2 + 120


def test_float_text_is_repr_of_every_value():
    special = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16, 0.1 + 0.2, 3.0, -7.0]
    blocks = [
        np.array([special, special[::-1], [0.0] * 10, [-0.0] * 10, [1e16, 5e-324] * 5]),
        np.random.default_rng(3).uniform(-1e6, 1e6, size=(5, 400)),  # every value distinct
        np.empty((5, 0)),
    ]
    for block in blocks:
        assert _float_text(block) == [[repr(x) for x in row] for row in block.tolist()]


# SHA-256 of artifacts from the per-slot scalar loop that the fleet-wide kernel replaced,
# and (the last four) from the csv.writer path that the column-native queue writer replaced.
GOLDEN = {
    ("simulate", "queues.csv"): "1cc120b6d2e458806b49e674365ed45da87e35ed5b956f0d7ee37960343428b3",
    ("simulate", "snapshots.csv"): "f3c20c6d19be4ae98d8992ecc1eb45a901dad1689e35fe0de2388b3a62beae7f",
    ("dpp", "power_trace.csv"): "3dcd12e656219c88c5272820a4189e97ad857c619b91a8b16e3472d4d68031d3",
    ("min-pa", "power_trace.csv"): "7eefcc235b601fa4e8ae0381387af8e5b32ae4de5ffa97a59b33348f5f7e4bc9",
    ("random", "queues.csv"): "b6fca98857fc572566957b216ff77ce7cc8c3048fa437e6fbce37d9afbf27e0c",
    ("dropped", "queues.csv"): "505a70950fbf372ef9f841d1094e7eea8e117b6f96101eae4403d76968ea617b",
    ("max-pa", "power_trace.csv"): "8d233d2c1331f5898d9962314b578928b1c40e9ddba99b9c20312423c6c09c55",
    ("json", "queues.json"): "45c56cf0fb6b946c177994f278cf9d1231eee3ad9a24f94b9dbd6a669ad0d761",
}


def test_golden_artifact_hashes(tmp_path):
    # the default scenario (default_spec(0)) and the standalone queue under three policies
    assert main(["simulate", "--out", str(tmp_path / "simulate")]) == 0
    for power in ("dpp", "min-pa", "max-pa"):
        assert main(["power-control", "--out", str(tmp_path / power), "--power", power]) == 0
    # SMALL with every backlog and arrival distinct; with every MBS drone dropped at
    # unit 0 (a header-only queue table); and as JSON
    variants = {
        "random": (SMALL + "dpp.arrival_kind = random\n", []),
        "dropped": (SMALL + "init.min_frac = 0.0\ninit.max_frac = 0.0\n", []),
        "json": (SMALL, ["--format", "json"]),
    }
    for run, (text, extra) in variants.items():
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / run), *extra]) == 0
    for (run, name), digest in GOLDEN.items():
        assert hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest() == digest, f"{run}/{name}"


def test_oracle_check_passes_and_reports():
    buffer = io.StringIO()
    assert oracle_check(instances=25, seed=5, out=buffer) == 0
    report = buffer.getvalue()
    assert "stage1 oracle: 25/25 match" in report
    assert "stage2 oracle (allocate): 25/25 match" in report
    assert "stage2 oracle (literal): 25/25 match" in report
    assert "±0.6561 OK" in report


def test_oracle_check_catches_corrupted_solver(monkeypatch):
    def sabotaged(towers, chargers):
        result = matching.stage1_brute_force(towers, chargers)
        result.objective += 1.0
        return result

    monkeypatch.setattr(matching, "stage1_match", sabotaged)
    assert oracle_check(instances=5, seed=5, out=io.StringIO()) == 1
