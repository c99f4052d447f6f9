"""Command-line front end: config loading, runs, sweeps, artifact emission.

Scenario files are flat ``key = value`` text (``#`` starts a comment).
Every run writes a manifest embedding the seed and a hash of the
normalized config, so artifacts from identical configurations are
byte-identical.  See README for the key reference and artifact schemas.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import random
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import matching, metrics, powerctl, simengine
from .core import InvalidParameterError, TimingConfig
from .powerctl import ArrivalModel, ChannelModel
from .simengine import QueueTrace, Scenario, ScenarioSpec, SimResult

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Scenario file failed to parse or validate."""


@dataclass
class RunConfig:
    command: str
    scenario_path: str | None
    out_dir: str
    fmt: str = "csv"
    seed: int | None = None
    horizon: int | None = None
    mode: str | None = None
    baseline: str | None = None
    power: str | None = None


def _parse_actions(text: str) -> tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"action range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("action step must be > 0")
        actions = []
        level = start
        while level <= stop + 1e-9:
            actions.append(round(level, 9))
            level += step
        return tuple(actions)
    return tuple(float(p) for p in text.split(","))


def _format_actions(actions: tuple[float, ...]) -> str:
    return ",".join(repr(a) for a in actions)


_IDENT = lambda v: v

# key -> (parser, formatter); applied onto a plain dict of spec fields.
_KEYS: dict[str, tuple] = {
    "seed": (int, repr),
    "horizon": (int, repr),
    "horizon_minutes": (float, repr),
    "map.width_m": (float, repr),
    "map.height_m": (float, repr),
    "altitude_m": (float, repr),
    "timing.unit_s": (float, repr),
    "timing.tower_phase_s": (float, repr),
    "timing.mbs_phase_s": (float, repr),
    "timing.slot_s": (float, repr),
    "tower.count": (int, repr),
    "tower.plates": (int, repr),
    "tower.power_w": (float, repr),
    "tower.efficiency": (float, repr),
    "charger.count": (int, repr),
    "charger.battery_mah": (float, repr),
    "charger.battery_volts": (float, repr),
    "charger.capacity_j": (float, repr),
    "charger.speed_ms": (float, repr),
    "charger.efficiency": (float, repr),
    "charger.move_power_w": (float, repr),
    "mbs.count": (int, repr),
    "mbs.battery_mah": (float, repr),
    "mbs.battery_volts": (float, repr),
    "mbs.capacity_j": (float, repr),
    "mbs.efficiency": (float, repr),
    "mbs.plates": (int, repr),
    "mbs.hover_power_w": (float, repr),
    "mbs.charge_power_max_w": (float, repr),
    "init.min_frac": (float, repr),
    "init.max_frac": (float, repr),
    "dpp.v": (_IDENT, _IDENT),
    "dpp.actions": (_parse_actions, _format_actions),
    "dpp.bandwidth_hz": (float, repr),
    "dpp.gain": (float, repr),
    "dpp.noise_w": (float, repr),
    "dpp.arrival_kind": (str, str),
    "dpp.arrival_bits": (float, repr),
    "policy.stage1": (str, str),
    "policy.stage2": (str, str),
    "policy.power": (str, str),
    "matching.mode": (str, str),
    "matching.value_eps_j": (float, repr),
}

MAH_TO_J = 3.6  # mAh * volts * 3.6 = joules


def load_scenario_text(text: str) -> tuple[ScenarioSpec, list[str]]:
    """Parse config text into a validated spec plus provenance notes."""
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser = _KEYS[key][0]
        try:
            raw[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return _spec_from_raw(raw)


def load_scenario(path: str) -> tuple[ScenarioSpec, list[str]]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    return load_scenario_text(text)


def _battery_to_j(mah: float, volts: float) -> float:
    return round(mah * volts * MAH_TO_J, 1)


def _spec_from_raw(raw: dict[str, object]) -> tuple[ScenarioSpec, list[str]]:
    provenance: list[str] = []
    defaults = ScenarioSpec()

    def cap(prefix: str, default: float) -> float:
        if f"{prefix}.capacity_j" in raw:
            return float(raw[f"{prefix}.capacity_j"])
        if f"{prefix}.battery_mah" in raw or f"{prefix}.battery_volts" in raw:
            mah = float(raw.get(f"{prefix}.battery_mah", 5870.0))
            volts = float(raw.get(f"{prefix}.battery_volts", 17.4))
            joules = _battery_to_j(mah, volts)
            provenance.append(f"{prefix} capacity: {mah:g} mAh * {volts:g} V -> {joules:.1f} J")
            return joules
        return default

    unit_s = float(raw.get("timing.unit_s", defaults.timing.unit_s))
    slot_s = float(raw.get("timing.slot_s", defaults.timing.slot_s))
    slots_per_unit = int(round(unit_s / slot_s))
    try:
        timing = TimingConfig(
            unit_s=unit_s,
            tower_phase_s=float(raw.get("timing.tower_phase_s", defaults.timing.tower_phase_s)),
            mbs_phase_s=float(raw.get("timing.mbs_phase_s", defaults.timing.mbs_phase_s)),
            slot_s=slot_s,
            slots_per_unit=slots_per_unit,
        )
        dpp_v_raw = str(raw.get("dpp.v", "auto")).strip()
        if dpp_v_raw == "auto":
            dpp_v = None
        else:
            try:
                dpp_v = float(dpp_v_raw)
            except ValueError as exc:
                raise InvalidParameterError(f"dpp.v must be 'auto' or a number, got {dpp_v_raw!r}") from exc
        if "horizon_minutes" in raw and "horizon" in raw:
            raise InvalidParameterError("give horizon or horizon_minutes, not both")
        if "horizon_minutes" in raw:
            minutes = float(raw["horizon_minutes"])
            horizon = int(round(minutes * 60.0 / unit_s))
            if horizon < 1 or abs(horizon * unit_s - minutes * 60.0) > 1e-6:
                raise InvalidParameterError(
                    f"horizon_minutes {minutes:g} is not a whole number of {unit_s:g} s unit times"
                )
            provenance.append(f"horizon: {minutes:g} min -> {horizon} unit times of {unit_s:g} s")
        else:
            horizon = int(raw.get("horizon", defaults.horizon))
        spec = ScenarioSpec(
            seed=int(raw.get("seed", defaults.seed)),
            horizon=horizon,
            map_width_m=float(raw.get("map.width_m", defaults.map_width_m)),
            map_height_m=float(raw.get("map.height_m", defaults.map_height_m)),
            altitude_m=float(raw.get("altitude_m", defaults.altitude_m)),
            tower_count=int(raw.get("tower.count", defaults.tower_count)),
            tower_plates=int(raw.get("tower.plates", defaults.tower_plates)),
            tower_power_w=float(raw.get("tower.power_w", defaults.tower_power_w)),
            tower_efficiency=float(raw.get("tower.efficiency", defaults.tower_efficiency)),
            charger_count=int(raw.get("charger.count", defaults.charger_count)),
            charger_capacity_j=cap("charger", defaults.charger_capacity_j),
            charger_speed_ms=float(raw.get("charger.speed_ms", defaults.charger_speed_ms)),
            charger_efficiency=float(raw.get("charger.efficiency", defaults.charger_efficiency)),
            charger_move_power_w=float(raw.get("charger.move_power_w", defaults.charger_move_power_w)),
            mbs_count=int(raw.get("mbs.count", defaults.mbs_count)),
            mbs_capacity_j=cap("mbs", defaults.mbs_capacity_j),
            mbs_efficiency=float(raw.get("mbs.efficiency", defaults.mbs_efficiency)),
            mbs_plates=int(raw.get("mbs.plates", defaults.mbs_plates)),
            mbs_hover_power_w=float(raw.get("mbs.hover_power_w", defaults.mbs_hover_power_w)),
            mbs_charge_power_max_w=float(raw.get("mbs.charge_power_max_w", defaults.mbs_charge_power_max_w)),
            init_min_frac=float(raw.get("init.min_frac", defaults.init_min_frac)),
            init_max_frac=float(raw.get("init.max_frac", defaults.init_max_frac)),
            timing=timing,
            dpp_v=dpp_v,
            dpp_actions=raw.get("dpp.actions", defaults.dpp_actions),  # type: ignore[arg-type]
            channel=ChannelModel(
                bandwidth_hz=float(raw.get("dpp.bandwidth_hz", defaults.channel.bandwidth_hz)),
                gain=float(raw.get("dpp.gain", defaults.channel.gain)),
                noise_w=float(raw.get("dpp.noise_w", defaults.channel.noise_w)),
            ),
            arrival=ArrivalModel(
                kind=str(raw.get("dpp.arrival_kind", defaults.arrival.kind)),
                mean_bits=float(raw.get("dpp.arrival_bits", defaults.arrival.mean_bits)),
            ),
            matching_mode=str(raw.get("matching.mode", defaults.matching_mode)),
            stage1_policy=str(raw.get("policy.stage1", defaults.stage1_policy)),
            stage2_policy=str(raw.get("policy.stage2", defaults.stage2_policy)),
            power_policy=str(raw.get("policy.power", defaults.power_policy)),
            value_eps=float(raw.get("matching.value_eps_j", defaults.value_eps)),
        )
        _validate_spec(spec)
    except (InvalidParameterError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return spec, provenance


def _validate_spec(spec: ScenarioSpec) -> Scenario:
    if not 0.0 <= spec.init_min_frac <= spec.init_max_frac <= 1.0:
        raise InvalidParameterError("init fractions must satisfy 0 <= min <= max <= 1")
    if spec.tower_count < 0 or spec.charger_count < 0 or spec.mbs_count < 0:
        raise InvalidParameterError("entity counts must be >= 0")
    if spec.map_width_m <= 0 or spec.map_height_m <= 0 or spec.altitude_m < 0:
        raise InvalidParameterError("map dimensions must be positive")
    scenario = spec.build()
    scenario.validate()
    return scenario


def emit_scenario(spec: ScenarioSpec) -> str:
    """Normalized config text; load_scenario_text round-trips it exactly."""
    values = {
        "seed": spec.seed,
        "horizon": spec.horizon,
        "map.width_m": spec.map_width_m,
        "map.height_m": spec.map_height_m,
        "altitude_m": spec.altitude_m,
        "timing.unit_s": spec.timing.unit_s,
        "timing.tower_phase_s": spec.timing.tower_phase_s,
        "timing.mbs_phase_s": spec.timing.mbs_phase_s,
        "timing.slot_s": spec.timing.slot_s,
        "tower.count": spec.tower_count,
        "tower.plates": spec.tower_plates,
        "tower.power_w": spec.tower_power_w,
        "tower.efficiency": spec.tower_efficiency,
        "charger.count": spec.charger_count,
        "charger.capacity_j": spec.charger_capacity_j,
        "charger.speed_ms": spec.charger_speed_ms,
        "charger.efficiency": spec.charger_efficiency,
        "charger.move_power_w": spec.charger_move_power_w,
        "mbs.count": spec.mbs_count,
        "mbs.capacity_j": spec.mbs_capacity_j,
        "mbs.efficiency": spec.mbs_efficiency,
        "mbs.plates": spec.mbs_plates,
        "mbs.hover_power_w": spec.mbs_hover_power_w,
        "mbs.charge_power_max_w": spec.mbs_charge_power_max_w,
        "init.min_frac": spec.init_min_frac,
        "init.max_frac": spec.init_max_frac,
        "dpp.v": "auto" if spec.dpp_v is None else repr(spec.dpp_v),
        "dpp.actions": spec.dpp_actions,
        "dpp.bandwidth_hz": spec.channel.bandwidth_hz,
        "dpp.gain": spec.channel.gain,
        "dpp.noise_w": spec.channel.noise_w,
        "dpp.arrival_kind": spec.arrival.kind,
        "dpp.arrival_bits": spec.arrival.mean_bits,
        "policy.stage1": spec.stage1_policy,
        "policy.stage2": spec.stage2_policy,
        "policy.power": spec.power_policy,
        "matching.mode": spec.matching_mode,
        "matching.value_eps_j": spec.value_eps,
    }
    lines = ["# uavcharge scenario (normalized)"]
    for key in _KEYS:
        if key not in values:
            continue  # battery_mah/volts collapse into capacity_j
        formatter = _KEYS[key][1]
        lines.append(f"{key} = {formatter(values[key])}")
    return "\n".join(lines) + "\n"


def config_hash(spec: ScenarioSpec) -> str:
    digest = hashlib.sha256(emit_scenario(spec).encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


# ---------------------------------------------------------------------------
# Artifact writers.

def _artifact_header(spec: ScenarioSpec) -> str:
    return f"# uavcharge schema={SCHEMA_VERSION} seed={spec.seed} config={config_hash(spec)}"


def _write_table(path: str, fmt: str, spec: ScenarioSpec, columns: list[str], rows: Iterable) -> str:
    """Write one artifact table; CSV rows stream to the file as ``rows`` yields them."""
    full = f"{path}.{fmt}"
    with open(full, "w", encoding="utf-8") as fh:
        if fmt == "csv":
            fh.write(_artifact_header(spec) + "\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(rows)
        else:
            body = {
                "schema_version": SCHEMA_VERSION,
                "seed": spec.seed,
                "config_hash": config_hash(spec),
                "columns": columns,
                "rows": list(rows),
            }
            fh.write(json.dumps(body, sort_keys=True, indent=1) + "\n")
    return os.path.basename(full)


def _write_manifest(out_dir: str, spec: ScenarioSpec, provenance: list[str], extra: dict) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "seed": spec.seed,
        "config_hash": config_hash(spec),
        "config": emit_scenario(spec),
        "provenance": provenance,
    }
    manifest.update(extra)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=1) + "\n")


def _snapshot_rows(result: SimResult) -> Iterator[list]:
    for snap in result.snapshots:
        for role, energy, in (("charger", snap.charger_energy), ("mbs", snap.mbs_energy)):
            for entity_id, (residual, capacity) in energy.items():
                if role == "charger":
                    flows = snap.charger_flows[entity_id]
                    extras = [flows.tower_credit, flows.transfers_sent, flows.travel_spent, 0.0, 0.0, 0.0]
                    dropped = False
                else:
                    mflows = snap.mbs_flows[entity_id]
                    extras = [0.0, 0.0, 0.0, mflows.received, mflows.hover_drain, mflows.tx_drain]
                    dropped = entity_id in result.dropped_at and result.dropped_at[entity_id] <= snap.unit
                yield [snap.unit, entity_id, role, residual, 100.0 * residual / capacity, *extras, int(dropped)]


SNAPSHOT_COLUMNS = [
    "unit_time", "entity_id", "role", "residual_j", "residual_pct",
    "tower_credit_j", "transfers_sent_j", "travel_spent_j",
    "received_j", "hover_drain_j", "tx_drain_j", "dropped",
]


def _matching_rows(result: SimResult) -> Iterator[list]:
    for snap in result.snapshots:
        for tower_id, charger_id in snap.stage1_pairs:
            yield [snap.unit, 1, tower_id, charger_id, ""]
        for mbs_id, charger_id, transfer in snap.stage2_pairs:
            yield [snap.unit, 2, mbs_id, charger_id, transfer]


QUEUE_COLUMNS = ["slot", "backlog_bits", "power_w", "arrival_bits", "service_bits", "tx_energy_j"]


def _float_text(block: np.ndarray) -> list[list[str]]:
    """``repr`` of every value of a 2-D float64 block, as one list of strings per row.

    Each distinct value is formatted once and gathered back through
    ``np.unique``'s inverse.  The key is the bit pattern, not the value, so
    ``-0.0`` stays apart from ``0.0`` and every field is exactly ``repr(x)``.
    """
    flat = block.reshape(-1)
    _, first, inverse = np.unique(flat.view(np.int64), return_index=True, return_inverse=True)
    text = np.array([repr(x) for x in flat[first].tolist()], dtype=object)
    return text[inverse].reshape(block.shape).tolist()


def _write_queue_table(path: str, fmt: str, spec: ScenarioSpec, columns: list[str],
                       traces: Iterable[tuple[tuple[str, ...], QueueTrace]]) -> str:
    """Write queue traces, each row prefixed by its trace's key fields.

    CSV text is rendered from each trace's columns and written one trace at
    a time, equal to ``csv.writer`` output: ints are ``str``, floats ``repr``,
    and no field needs quoting, since the only key fields are drone ids
    from ``ScenarioSpec.build`` (``M00``, ``M01``, ...).  JSON keeps
    materialised rows, whose number text is ``json``'s own.
    """
    blocks = ((prefix, t.slot.tolist(), np.stack((t.backlog, t.power, t.arrival, t.service, t.energy)))
              for prefix, t in traces)
    if fmt == "json":
        rows = (row for prefix, slots, block in blocks for row in zip(*map(repeat, prefix), slots, *block.tolist()))
        return _write_table(path, fmt, spec, columns, rows)
    with open(f"{path}.csv", "w", encoding="utf-8") as fh:
        fh.write(f"{_artifact_header(spec)}\n{','.join(columns)}\n")
        for prefix, slots, block in blocks:
            if slots:
                lines = zip(*map(repeat, prefix), map(str, slots), *_float_text(block))
                fh.write("\n".join(map(",".join, lines)) + "\n")
    return f"{os.path.basename(path)}.csv"


def _summary(result: SimResult) -> dict:
    summary: dict = {
        "coverage_time": result.coverage_time,
        "survived": result.survived,
        "units_run": result.units_run,
        "horizon": result.horizon,
        "dropped_at": dict(sorted(result.dropped_at.items())),
        "note": "residual statistics are population mean/stddev in percent of capacity",
    }
    if result.snapshots:
        final = result.snapshots[-1]
        for role, energy in (("charger", final.charger_energy), ("mbs", final.mbs_energy)):
            if energy:
                profile = metrics.residual_stats(final, role)
                summary[f"{role}_residual"] = {
                    "mean_pct": profile.mean,
                    "stddev_pct": profile.stddev,
                    "values_pct": profile.values,
                }
    return summary


def _prepare_out_dir(out_dir: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc
    if not os.access(out_dir, os.W_OK):
        raise ConfigError(f"output directory {out_dir} is not writable")


def _apply_overrides(spec: ScenarioSpec, cfg: RunConfig) -> ScenarioSpec:
    if cfg.seed is not None:
        spec = replace(spec, seed=cfg.seed)
    if cfg.horizon is not None:
        spec = replace(spec, horizon=cfg.horizon)
    if cfg.mode is not None:
        spec = replace(spec, matching_mode=cfg.mode)
    if cfg.baseline is not None:
        policy = cfg.baseline.replace("-", "_")
        spec = replace(spec, stage1_policy=policy, stage2_policy=policy)
    if cfg.power is not None:
        spec = replace(spec, power_policy=cfg.power.replace("-", "_"))
    return spec


def _load_spec(cfg: RunConfig) -> tuple[ScenarioSpec, list[str], Scenario]:
    """The run's spec with overrides applied, its provenance notes, and the
    validated scenario built from it (the engine copies its entities)."""
    if cfg.scenario_path:
        spec, provenance = load_scenario(cfg.scenario_path)
    else:
        spec, provenance = ScenarioSpec(), []
    spec = _apply_overrides(spec, cfg)
    return spec, provenance, _validate_spec(spec)


# ---------------------------------------------------------------------------
# Commands.

def cmd_simulate(cfg: RunConfig) -> int:
    spec, provenance, scenario = _load_spec(cfg)
    _prepare_out_dir(cfg.out_dir)
    result = simengine.run(scenario)
    del scenario  # drop the roster before artifact writing, where the heap peaks
    files = [
        _write_table(os.path.join(cfg.out_dir, "snapshots"), cfg.fmt, spec, SNAPSHOT_COLUMNS, _snapshot_rows(result)),
        _write_table(
            os.path.join(cfg.out_dir, "matchings"), cfg.fmt, spec,
            ["unit_time", "stage", "served_id", "charger_id", "transfer_j"], _matching_rows(result),
        ),
        _write_queue_table(
            os.path.join(cfg.out_dir, "queues"), cfg.fmt, spec, ["drone_id", *QUEUE_COLUMNS],
            (((drone_id,), result.queue_traces[drone_id]) for drone_id in sorted(result.queue_traces)),
        ),
    ]
    summary = _summary(result)
    summary.update({"schema_version": SCHEMA_VERSION, "seed": spec.seed, "config_hash": config_hash(spec)})
    with open(os.path.join(cfg.out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(summary, sort_keys=True, indent=1) + "\n")
    files.append("summary.json")
    _write_manifest(cfg.out_dir, spec, provenance, {"command": "simulate", "artifacts": sorted(files)})
    print(f"simulate: wrote {len(files) + 1} files to {cfg.out_dir}")
    if result.coverage_time is None:
        print(f"coverage-time: survived all {result.horizon} unit times")
    else:
        print(f"coverage-time: {result.coverage_time} unit times")
    return 0


def cmd_match(cfg: RunConfig, stage: int) -> int:
    spec, provenance, scenario = _load_spec(cfg)
    _prepare_out_dir(cfg.out_dir)
    with open(os.path.join(cfg.out_dir, "instance.txt"), "w", encoding="utf-8") as fh:
        fh.write(_artifact_header(spec) + "\n")
        fh.write(matching.dump_instance(scenario.towers, scenario.chargers, scenario.mbs_drones, scenario.timing))
    if stage == 1:
        assignment = matching.stage1_match(scenario.towers, scenario.chargers)
        rows = [[tower_id, charger_id] for tower_id, charger_id in assignment.pairs]
        columns = ["tower_id", "charger_id"]
    else:
        assignment = matching.stage2_match(
            scenario.chargers, scenario.mbs_drones, scenario.timing,
            mode=scenario.matching_mode, eps=scenario.value_eps,
        )
        rows = [[mbs_id, charger_id, transfer] for mbs_id, charger_id, transfer in assignment.pairs]
        columns = ["mbs_id", "charger_id", "transfer_j"]
    files = [_write_table(os.path.join(cfg.out_dir, f"stage{stage}_assignment"), cfg.fmt, spec, columns, rows)]
    _write_manifest(
        cfg.out_dir, spec, provenance,
        {"command": f"match-stage{stage}", "objective": assignment.objective, "artifacts": sorted(files + ["instance.txt"])},
    )
    print(f"match-stage{stage}: {len(assignment.pairs)} pairs, objective {assignment.objective!r}")
    return 0


def cmd_power_control(cfg: RunConfig) -> int:
    spec, provenance, scenario = _load_spec(cfg)
    _prepare_out_dir(cfg.out_dir)
    dpp = scenario.dpp
    policy = scenario.power_policy
    rngs = [random.Random(f"{spec.seed}/arrivals/standalone")]
    arrivals = powerctl.arrival_block(dpp.arrival, rngs, spec.horizon * spec.timing.slots_per_unit)
    queues = powerctl.run_queues([0.0], arrivals, dpp, policy)
    trace = QueueTrace.of(dpp, queues.backlog[:, 0], queues.action[:, 0], arrivals[:, 0])
    verdict = metrics.stability_verdict(trace.backlog.tolist())
    files = [
        _write_queue_table(os.path.join(cfg.out_dir, "power_trace"), cfg.fmt, spec, QUEUE_COLUMNS, [((), trace)])
    ]
    _write_manifest(
        cfg.out_dir, spec, provenance,
        {"command": "power-control", "policy": policy, "verdict": verdict.verdict, "ratio": verdict.ratio,
         "artifacts": sorted(files)},
    )
    print(f"power-control [{policy}]: {verdict.verdict} (tail ratio {verdict.ratio:.4f})")
    return 0


def _parse_counts(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return list(range(int(lo), int(hi) + 1))
        return [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad counts {text!r}: {exc}") from exc


def cmd_sweep(cfg: RunConfig, counts: list[int]) -> int:
    spec, provenance, _ = _load_spec(cfg)
    _prepare_out_dir(cfg.out_dir)
    rows = []
    for count, cov in simengine.sweep_mbs_count(spec, counts):
        rows.append([count, "" if cov is None else cov, int(cov is None)])
        per_count = replace(spec, mbs_count=count)
        count_dir = os.path.join(cfg.out_dir, "counts")
        os.makedirs(count_dir, exist_ok=True)
        with open(os.path.join(count_dir, f"mbs{count:03d}.manifest.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(
                {"schema_version": SCHEMA_VERSION, "seed": per_count.seed, "mbs_count": count,
                 "config_hash": config_hash(per_count),
                 "coverage_time": cov},
                sort_keys=True, indent=1,
            ) + "\n")
    files = [_write_table(os.path.join(cfg.out_dir, "sweep"), cfg.fmt, spec,
                          ["mbs_count", "coverage_time", "survived"], rows)]
    _write_manifest(cfg.out_dir, spec, provenance, {"command": "sweep", "counts": counts, "artifacts": sorted(files)})
    print(f"sweep: {len(counts)} runs -> {cfg.out_dir}")
    return 0


def oracle_check(instances: int = 200, seed: int = 2024, out=sys.stdout) -> int:
    """Run both brute-force oracle suites and the non-convexity witness.

    Solver entry points are looked up on the matching module at call time
    so a corrupted solver (or a test double) is caught.
    """
    failures = 0
    rng = random.Random(f"{seed}/oracle/stage1")
    mismatches = 0
    for _ in range(instances):
        towers, chargers = matching.random_stage1_instance(rng)
        fast = matching.stage1_match(towers, chargers)
        slow = matching.stage1_brute_force(towers, chargers)
        scale = max(abs(slow.objective), 1.0)
        if abs(fast.objective - slow.objective) > 1e-9 * scale:
            mismatches += 1
    print(f"stage1 oracle: {instances - mismatches}/{instances} match", file=out)
    failures += mismatches

    for mode in ("allocate", "literal"):
        rng = random.Random(f"{seed}/oracle/stage2/{mode}")
        mismatches = 0
        for _ in range(instances):
            chargers, mbs_list, timing = matching.random_stage2_instance(rng)
            fast = matching.stage2_match(chargers, mbs_list, timing, mode=mode)
            slow = matching.stage2_brute_force(chargers, mbs_list, timing, mode=mode)
            scale = max(abs(slow.objective), 1.0)
            weight_scale = max(abs(slow.matched_value), 1.0)
            if (abs(fast.objective - slow.objective) > 1e-9 * scale
                    or abs(fast.matched_value - slow.matched_value) > 1e-9 * weight_scale):
                mismatches += 1
        print(f"stage2 oracle ({mode}): {instances - mismatches}/{instances} match", file=out)
        failures += mismatches

    obj_pair, con_pair = matching.hessian_eigenvalues(0.81, 0.81)
    witness_ok = (
        abs(obj_pair[0] - 1.0) < 1e-12 and abs(obj_pair[1] + 1.0) < 1e-12
        and abs(con_pair[0] - 0.6561) < 1e-12 and abs(con_pair[1] + 0.6561) < 1e-12
    )
    print(f"non-convexity witness (eta=0.81): ±{con_pair[0]:.4f} {'OK' if witness_ok else 'MISMATCH'}", file=out)
    if not witness_ok:
        failures += 1
    return 0 if failures == 0 else 1


def cmd_oracle_check(cfg: RunConfig, instances: int) -> int:
    status = oracle_check(instances=instances, seed=cfg.seed if cfg.seed is not None else 2024)
    print("oracle-check: " + ("all suites passed" if status == 0 else "MISMATCHES FOUND"))
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="uavcharge", description="UAV charging network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_out: bool = True) -> None:
        p.add_argument("--config", dest="config", default=None, help="scenario file (key = value lines)")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory for artifacts")
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--horizon", type=int, default=None, help="override the horizon (unit times)")
        p.add_argument("--mode", choices=("literal", "allocate"), default=None)
        p.add_argument("--baseline", choices=("proposed", "random", "greedy-best", "greedy-worst"), default=None)
        p.add_argument("--power", choices=("dpp", "max-pa", "min-pa"), default=None)

    common(sub.add_parser("simulate", help="run one scenario and write artifacts"))
    common(sub.add_parser("match-stage1", help="solve one tower/charger matching"))
    common(sub.add_parser("match-stage2", help="solve one charger/MBS matching"))
    common(sub.add_parser("power-control", help="run one transmission queue standalone"))
    sweep = sub.add_parser("sweep", help="coverage-time vs MBS count")
    common(sweep)
    sweep.add_argument("--counts", default="1:50", help="e.g. 1:50 or 1,5,10")
    oracle = sub.add_parser("oracle-check", help="brute-force oracle suites")
    oracle.add_argument("--instances", type=int, default=200)
    oracle.add_argument("--seed", type=int, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = RunConfig(
        command=args.command,
        scenario_path=getattr(args, "config", None),
        out_dir=getattr(args, "out", "."),
        fmt=getattr(args, "format", "csv"),
        seed=getattr(args, "seed", None),
        horizon=getattr(args, "horizon", None),
        mode=getattr(args, "mode", None),
        baseline=getattr(args, "baseline", None),
        power=getattr(args, "power", None),
    )
    try:
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "match-stage1":
            return cmd_match(cfg, 1)
        if args.command == "match-stage2":
            return cmd_match(cfg, 2)
        if args.command == "power-control":
            return cmd_power_control(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg, _parse_counts(args.counts))
        if args.command == "oracle-check":
            return cmd_oracle_check(cfg, args.instances)
    except (ConfigError, InvalidParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
