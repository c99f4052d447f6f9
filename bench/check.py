"""Output-correctness check for one `simulate` run.

A run passes when three things hold:

* its exact outputs (coverage time, drop units, stage-1/2 pairs, every
  per-slot power choice) hash to the recorded reference digest;
* its joule and bit columns, summed per unit time and per entity bucket,
  match the recorded sums to ``REL_TOL`` relative, so last-ulp differences
  pass and a single value off by 1e-6 relative does not;
* the run is internally consistent: every entity's energy balance closes
  per unit time to ``BALANCE_TOL_J`` (acceptance criterion 10), every
  queue obeys ``b' = max(b - service, 0) + arrival`` from slot to slot, and
  each MBS drone's per-slot transmit energy adds up to its snapshot
  ``tx_drain_j``.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib

import numpy as np

REL_TOL = 1e-9
BALANCE_TOL_J = 1e-6
BUCKETS = 32  # entity buckets per table; keeps the reference small

SNAPSHOT_FLOATS = (
    "residual_j", "residual_pct", "tower_credit_j", "transfers_sent_j",
    "travel_spent_j", "received_j", "hover_drain_j", "tx_drain_j",
)
QUEUE_FLOATS = ("backlog_bits", "arrival_bits", "service_bits", "tx_energy_j")
# table -> (columns parsed as float arrays, columns parsed as int arrays)
NUMERIC = {
    "snapshots": (SNAPSHOT_FLOATS, ("unit_time",)),
    "matchings": ((), ("unit_time",)),
    "queues": (QUEUE_FLOATS + ("power_w",), ("slot",)),
}


def _read_table(path: str, floats: tuple[str, ...], ints: tuple[str, ...]) -> dict:
    """Column name -> values (numpy arrays for ``floats``/``ints``, else strings).

    Artifacts hold ids and numbers only, so a plain split is exact; a row
    with a stray comma or a missing cell fails the shape check.
    """
    with open(path, encoding="utf-8") as fh:
        fh.readline()  # "# uavcharge schema=..." provenance line
        header = fh.readline().rstrip("\n").split(",")
        body = fh.read()
    rows = body.count("\n")
    cells = body.replace("\n", ",").split(",")[:-1] if rows else []
    if len(cells) != rows * len(header):
        raise ValueError(f"{path}: {len(cells)} cells in {rows} rows of {len(header)} columns")
    table = {name: cells[k::len(header)] for k, name in enumerate(header)}
    for names, dtype, parse in ((floats, float, float), (ints, np.int64, int)):
        for name in names:
            table[name] = np.fromiter(map(parse, table[name]), dtype=dtype, count=rows)
    table["rows"] = rows
    return table


def read_outputs(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        outputs = {"summary": json.load(fh)}
    for name, (floats, ints) in NUMERIC.items():
        outputs[name] = _read_table(os.path.join(out_dir, f"{name}.csv"), floats, ints)
    return outputs


def _buckets(entity_ids) -> list[str]:
    names = {e: f"b{zlib.crc32(e.encode()) % BUCKETS}" for e in set(entity_ids)}
    return [names[e] for e in entity_ids]


def _group_sums(keys: list, values: np.ndarray) -> dict:
    """Column sums of ``values`` (rows x columns) per distinct key."""
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    inverse = np.fromiter(map(index.__getitem__, keys), dtype=np.int64, count=len(keys))
    sums = [np.bincount(inverse, weights=values[:, c], minlength=len(index)) for c in range(values.shape[1])]
    return {key: [float(col[i]) for col in sums] for key, i in index.items()}


def _columns(table: dict, names: tuple[str, ...]) -> np.ndarray:
    return np.column_stack([table[c] for c in names]).reshape(table["rows"], len(names))


def digest(outputs: dict, slots_per_unit: int) -> dict:
    """Exact-field hash plus per-group float sums; the reference stores this."""
    summary, snaps, matches, queues = (outputs[t] for t in ("summary", "snapshots", "matchings", "queues"))
    exact = hashlib.sha256()
    exact.update(repr((
        summary["coverage_time"], sorted(summary["dropped_at"].items()),
        summary["units_run"], summary["horizon"],
    )).encode())
    for fields in (
        zip(map(str, snaps["unit_time"].tolist()), snaps["entity_id"], snaps["role"], snaps["dropped"]),
        zip(map(str, matches["unit_time"].tolist()), matches["stage"], matches["served_id"], matches["charger_id"]),
        zip(queues["drone_id"], map(str, queues["slot"].tolist()), map(repr, queues["power_w"].tolist())),
    ):
        exact.update("\n".join(map(",".join, fields)).encode())
        exact.update(b"\x00")

    sums = {}
    values = _columns(snaps, SNAPSHOT_FLOATS)
    sums["snapshots"] = {
        **_group_sums([f"u{u}{r[0]}" for u, r in zip(snaps["unit_time"].tolist(), snaps["role"])], values),
        **_group_sums(_buckets(snaps["entity_id"]), values),
    }
    stage2 = [k for k, stage in enumerate(matches["stage"]) if stage == "2"]
    values = np.array([float(matches["transfer_j"][k]) for k in stage2]).reshape(-1, 1)
    sums["matchings"] = {
        **_group_sums([f"u{matches['unit_time'][k]}" for k in stage2], values),
        **_group_sums(_buckets([matches["served_id"][k] for k in stage2]), values),
    }
    values = _columns(queues, QUEUE_FLOATS)
    units = queues["slot"] // slots_per_unit + 1
    sums["queues"] = {
        **_group_sums([f"u{u}" for u in units.tolist()], values),
        **_group_sums(_buckets(queues["drone_id"]), values),
    }
    sums["summary"] = {
        role: [stats["mean_pct"], stats["stddev_pct"]]
        for role in ("charger", "mbs") if (stats := summary.get(f"{role}_residual"))
    }
    return {"exact": exact.hexdigest(), "sums": sums}


def _close(a: float, b: float, rel: float, floor: float) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def compare(reference: dict, got: dict) -> list[str]:
    """Differences between a recorded digest and this run's digest."""
    problems = []
    if reference["exact"] != got["exact"]:
        problems.append("exact outputs (coverage, drops, pairs or power choices) differ from the reference")
    for table, ref_groups in reference["sums"].items():
        got_groups = got["sums"].get(table, {})
        if set(ref_groups) != set(got_groups):
            problems.append(f"{table}: group keys differ from the reference")
            continue
        for key, ref_values in ref_groups.items():
            for ref_v, got_v in zip(ref_values, got_groups[key]):
                if not _close(ref_v, got_v, REL_TOL, 1e-12):
                    problems.append(f"{table}/{key}: {got_v!r} != reference {ref_v!r}")
    return problems


def invariants(outputs: dict, initial: dict[str, tuple[float, float]], slots_per_unit: int) -> list[str]:
    """Reference-free consistency checks; ``initial`` maps id -> (residual, capacity)."""
    problems = []
    snaps = outputs["snapshots"]
    prev = {eid: residual for eid, (residual, _) in initial.items()}
    tx_drain: dict[tuple[str, int], float] = {}
    for unit, eid, role, residual, _pct, credit, sent, travel, received, hover, tx in zip(
        snaps["unit_time"].tolist(), snaps["entity_id"], snaps["role"],
        *(snaps[c].tolist() for c in SNAPSHOT_FLOATS),
    ):
        capacity = initial[eid][1]
        if role == "charger":
            expected = max(prev[eid] + credit - sent - travel, 0.0)
        else:
            expected = min(max(prev[eid] + received - hover - tx, 0.0), capacity)
            tx_drain[(eid, unit)] = tx
        if abs(residual - expected) > BALANCE_TOL_J:
            problems.append(f"unit {unit} {eid}: energy balance off by {residual - expected!r} J")
        if not -1e-9 <= residual <= capacity + 1e-9:
            problems.append(f"unit {unit} {eid}: residual {residual!r} outside [0, {capacity!r}]")
        prev[eid] = residual

    queues = outputs["queues"]
    if not queues["rows"]:
        return problems
    drones, slots = queues["drone_id"], queues["slot"]
    backlog, arrival, service = (queues[c] for c in QUEUE_FLOATS[:3])
    same_queue = (np.array(drones[1:]) == np.array(drones[:-1])) & (slots[1:] == slots[:-1] + 1)
    expected = np.maximum(backlog[:-1] - service[:-1], 0.0) + arrival[:-1]
    bad = same_queue & (np.abs(backlog[1:] - expected) > np.maximum(REL_TOL * np.abs(expected), 1e-6))
    for k in np.flatnonzero(bad)[:5].tolist():
        problems.append(f"{drones[k + 1]} slot {slots[k + 1]}: backlog {backlog[k + 1]!r} != {expected[k]!r}")

    units = (slots // slots_per_unit + 1).tolist()
    for (drone, unit), (total,) in _group_sums(list(zip(drones, units)),
                                               queues["tx_energy_j"].reshape(-1, 1)).items():
        drained = tx_drain.get((drone, unit), 0.0)
        if not _close(total, drained, REL_TOL, 1e-9):
            problems.append(f"{drone} unit {unit}: slot tx energy {total!r} != tx_drain_j {drained!r}")
    return problems
