#!/usr/bin/env python3
"""One benchmark run of `uavcharge simulate`, driven in-process as a user would.

    python3 bench/run.py --workload default --seed 3 --seconds 20 --trace 0

The workload's scenario pool (the scenario seeds recorded in the
reference file) is visited in an order drawn from ``--seed``; each
scenario is emitted as a config file with ``cli.emit_scenario`` and run
through ``cli.main(["simulate", ...])`` closed-loop, one call after the
other, until ``--seconds`` of timed calls have accumulated.  Every call's
artifacts are checked against the reference (see check.py) outside the
timed region.

``--trace 0`` reports the end-to-end metrics: median ``run_ref`` (one
simulate call's host seconds divided by those of a fixed reference loop
timed just before and after it), median ``setup_s`` (simulate call to
first unit time, divided by the run's median reference loop and given in
seconds of a host on which that loop takes ``REF_LOOP_S``)
and ``peak_heap_mb`` from one untimed tracemalloc pass on the pool's first
scenario.  Raw host seconds of the calls are printed as a comment line.
``--trace 1`` alternates untraced and traced calls, reports the per-layer
metrics of tracing.py plus the tracing overhead, and exits non-zero if the
layer self times do not add up to the untraced call within that overhead.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, so every run is single-threaded.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_REFERENCE = os.path.join(HERE, "reference.json.gz")
MAX_WALL_S = 150.0  # stay well inside the 180 s a run may take
REF_LOOP_S = 0.010  # nominal seconds of reference_loop(); about its median on a 2-vCPU x86_64 host
# Self-time metrics of the traced call; with the leaf overhead they cover all of it.
SELF_LAYERS = ("cli.load_s", "cli.write_s", "simengine.build_s", "simengine.self_s", "powerctl.decide_s",
               "matching.stage1_s", "matching.stage2_s", "matching.pair_value_s", "matching.alloc_s",
               "matching.assignment_s")


@dataclass
class Scenario:
    seed: int
    config: str
    slots_per_unit: int
    initial: dict  # entity id -> (residual, capacity) before the first unit


def import_program():
    """Import uavcharge from this checkout's src/ only; None if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import uavcharge
    except ImportError:
        return None
    if not os.path.abspath(uavcharge.__file__).startswith(SRC + os.sep):
        return None
    sys.path.insert(0, HERE)
    return uavcharge


def provenance() -> dict:
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def load_reference(path: str) -> dict:
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def prepare(workload: str, scenario_seed: int, work: str) -> Scenario:
    from uavcharge import cli
    from workloads import spec_for

    spec = spec_for(workload, scenario_seed)
    config = os.path.join(work, f"{workload}-{scenario_seed}.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(cli.emit_scenario(spec))
    built = spec.build()
    initial = {e.id: (e.residual, e.capacity) for e in (*built.chargers, *built.mbs_drones)}
    return Scenario(scenario_seed, config, spec.timing.slots_per_unit, initial)


def simulate(scenario: Scenario, out: str, tracer=None) -> int:
    from uavcharge import cli

    argv = ["simulate", "--config", scenario.config, "--out", out]
    with contextlib.redirect_stdout(io.StringIO()):
        if tracer is None:
            return cli.main(argv)
        return tracer.call("cli.simulate", cli.main, argv)


class Ledger:
    """Counts attempted and failed simulate calls; keeps the last call's time and outputs."""

    def __init__(self, reference: dict) -> None:
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.started = 0.0  # perf_counter at the start of the last call
        self.elapsed = 0.0  # host seconds of the last call
        self.outputs: dict | None = None

    def run(self, scenario: Scenario, out: str, tracer=None, around=contextlib.nullcontext()) -> bool:
        """One checked simulate call inside ``around``; True if it ran to completion.

        A call whose outputs fail the check still completed, and counts as failed.
        """
        import check

        self.attempted += 1
        self.outputs = None
        shutil.rmtree(out, ignore_errors=True)
        completed = False
        self.elapsed = 0.0
        self.started = time.perf_counter()
        try:
            with around:
                status = simulate(scenario, out, tracer)
            self.elapsed = time.perf_counter() - self.started
            completed = status == 0
            problems = [] if completed else [f"simulate exited with {status}"]
            if completed:
                self.outputs = check.read_outputs(out)
                problems = check.invariants(self.outputs, scenario.initial, scenario.slots_per_unit)
                problems += check.compare(
                    self.reference[str(scenario.seed)], check.digest(self.outputs, scenario.slots_per_unit)
                )
        except Exception:  # a crashing call is a failed operation, not a benchmark crash
            self.elapsed = self.elapsed or time.perf_counter() - self.started
            traceback.print_exc(file=sys.stderr)
            problems = ["simulate raised or its outputs could not be read"]
        if problems:
            self.failed += 1
            print(f"scenario {scenario.seed}: " + "; ".join(problems[:5]), file=sys.stderr)
        return completed


def reference_loop() -> float:
    """Host seconds of a fixed pure-Python loop (random draws, dict stores, float math, a sort).

    It never changes, so a simulate call's host time divided by it factors
    out how fast the shared host happens to run at that moment.
    """
    start = time.perf_counter()
    rng = random.Random(1)
    table: dict[int, tuple[float, int]] = {}
    total = 0.0
    for i in range(50000):
        x = rng.random()
        table[i % 97] = (x, i)
        total += x * x
    sorted(table.values())
    return time.perf_counter() - start


@contextlib.contextmanager
def heap_peak(record: list):
    """Append the peak traced Python heap, in bytes, of the enclosed block to ``record``."""
    tracemalloc.start()
    try:
        yield
    finally:
        record.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


def end_to_end(scenarios: list[Scenario], order: list[Scenario], ledger: Ledger, out: str, seconds: float,
               started: float) -> dict:
    from uavcharge import simengine

    peak = []
    ledger.run(scenarios[0], out, around=heap_peak(peak))

    first_unit = [0.0]
    step = simengine.step_unit_time

    def probe(state):
        if not first_unit[0]:
            first_unit[0] = time.perf_counter()
        return step(state)

    run_s, run_ref, setup_s, ref_s = [], [], [], []
    spent, k = 0.0, 0
    simengine.step_unit_time = probe
    try:
        while spent < seconds and time.monotonic() - started < MAX_WALL_S:
            first_unit[0] = 0.0
            before = reference_loop()
            completed = ledger.run(order[k % len(order)], out)
            ref = (before + reference_loop()) / 2
            if completed:
                run_s.append(ledger.elapsed)
                run_ref.append(ledger.elapsed / ref)
                setup_s.append(first_unit[0] - ledger.started)
                ref_s.append(ref)
            spent += ledger.elapsed
            k += 1
    finally:
        simengine.step_unit_time = step
    if not run_s:
        return {}
    print(f"# {_spread('run_s', run_s)}; {_spread('run_ref', run_ref)}; host {_spread('setup_s', setup_s)}; "
          f"reference loop p50={1e3 * statistics.median(ref_s):.3f} ms")
    return {
        "run_ref": (statistics.median(run_ref), "ref"),
        "setup_s": (statistics.median(setup_s) / statistics.median(ref_s) * REF_LOOP_S, "s"),
        "peak_heap_mb": (peak[0] / 1e6, "MB"),
    }


def _spread(name: str, values: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples above it."""
    text = f"{name} n={len(values)} p50={statistics.median(values):.4f}"
    top = int(100 * (1 - 10 / len(values)))
    if top > 50:
        text += f" p{top}={statistics.quantiles(values, n=100, method='inclusive')[top - 1]:.4f}"
    return text


def call_layers(stats: dict, outputs: dict, out: str) -> dict[str, float]:
    """Per-layer values of one traced call from its span totals and artifacts."""
    def get(key: str) -> float:
        return stats.get(key, 0)

    stage2_pairs = outputs["matchings"]["stage"].count("2")
    pair_value_calls = get("calls:matching.pair_value")
    return {
        "cli.load_s": get("self:cli.load_scenario"),
        "cli.write_s": get("self:cli.simulate"),
        "cli.rows_written": sum(outputs[t]["rows"] for t in ("snapshots", "matchings", "queues")),
        "cli.bytes_written": sum(os.path.getsize(os.path.join(out, f)) for f in os.listdir(out)),
        "simengine.build_s": get("self:simengine.build"),
        "simengine.build_calls": get("calls:simengine.build"),
        "simengine.run_s": get("incl:simengine.run"),
        "simengine.units": get("calls:simengine.step_unit_time"),
        "simengine.self_s": get("self:simengine.run") + get("self:simengine.step_unit_time"),
        "powerctl.decide_s": get("self:powerctl.decide"),
        "powerctl.decide_calls": get("calls:powerctl.decide"),
        "powerctl.slot_steps": outputs["queues"]["rows"],
        "matching.stage1_s": get("self:matching.stage1"),
        "matching.stage1_calls": get("calls:matching.stage1"),
        "matching.stage2_s": get("self:matching.stage2"),
        "matching.stage2_calls": get("calls:matching.stage2"),
        "matching.pair_value_s": get("self:matching.pair_value"),
        "matching.pair_value_calls": pair_value_calls,
        "matching.alloc_s": get("self:matching.alloc"),
        "matching.assignment_s": get("self:matching.assignment"),
        "matching.assignment_cells": get("cells:matching.assignment"),
        "matching.pairs_matched": stage2_pairs,
        "matching.match_yield": stage2_pairs / pair_value_calls if pair_value_calls else 0.0,
        "trace.run_s": get("raw:cli.simulate"),
        "trace.leaf_overhead_s": get("self:trace.leaf_overhead"),
    }


LAYER_UNITS = {"_s": "s", "_calls": "count", "_written": "count", "units": "count", "_steps": "count",
               "_cells": "count", "_matched": "count", "_yield": "ratio"}


def _unit(name: str) -> str:
    if name == "cli.bytes_written":
        return "B"
    return next(unit for suffix, unit in LAYER_UNITS.items() if name.endswith(suffix))


def per_layer(order: list[Scenario], ledger: Ledger, out: str, seconds: float, started: float,
              spans_path: str) -> dict:
    import tracing

    ledger.run(order[0], out)  # warm-up, untraced
    tracer = tracing.Tracer()
    untraced, overheads, gaps, calls, unit_ms = [], [], [], [], []
    spent, k = 0.0, 0
    while spent < seconds and time.monotonic() - started < MAX_WALL_S:
        scenario = order[k % len(order)]
        plain = ledger.run(scenario, out)
        plain_s = ledger.elapsed
        spent += ledger.elapsed
        tracer.run_id = k
        lo = len(tracer.spans)
        with tracer.installed():
            completed = ledger.run(scenario, out, tracer)
        spent += ledger.elapsed
        if plain:
            untraced.append(plain_s)
        if completed and ledger.outputs is not None:
            stats = tracing.layer_stats(tracer.spans, lo, len(tracer.spans), tracer.leaf_cost)
            unit_ms.extend(stats["unit_ms"])
            calls.append(call_layers(stats, ledger.outputs, out))
            if plain:  # paired with the untraced call of the same scenario just before
                overheads.append(calls[-1]["trace.run_s"] - plain_s)
                gaps.append(sum(calls[-1][name] for name in SELF_LAYERS) - plain_s)
        k += 1
    tracer.dump(spans_path)
    if not overheads:
        return {}, ""
    metrics = {name: (statistics.median(c[name] for c in calls), _unit(name)) for name in calls[0]}
    untraced_run_s = statistics.median(untraced)
    overhead = statistics.median(overheads)
    metrics["trace.untraced_run_s"] = (untraced_run_s, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["simengine.unit_ms_p50"] = (tracing.quantile(unit_ms, 0.5), "ms")
    metrics["simengine.unit_ms_p90"] = (tracing.quantile(unit_ms, 0.9), "ms")
    metrics["simengine.unit_samples"] = (len(unit_ms), "count")
    gap = statistics.median(gaps)
    print(f"# traced calls: {len(calls)}; leaf wrapper cost {1e9 * tracer.leaf_cost[0]:.0f} + "
          f"{1e9 * tracer.leaf_cost[1]:.0f} ns per call; spans written to {os.path.relpath(spans_path, ROOT)}")
    print(f"# layer self times minus the untraced run_s of the same scenario: median {gap:+.4f} s "
          f"over {len(gaps)} pairs; tracing overhead {overhead:.4f} s")
    if abs(gap) > overhead:
        return metrics, "layer self times do not add up to the untraced run_s within the tracing overhead"
    return metrics, ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=DEFAULT_REFERENCE,
                        help="gzipped reference digests; its scenario seeds form the pool")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if import_program() is None:
        print(f"error: cannot import uavcharge from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        reference = load_reference(args.reference)["workloads"][args.workload]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: no reference for {args.workload} in {args.reference}: {exc!r}", file=sys.stderr)
        return 2
    print("# provenance " + json.dumps(provenance(), sort_keys=True))

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        pool = [prepare(args.workload, int(s), work) for s in sorted(reference, key=int)]
        order = random.Random(args.seed).sample(pool, len(pool))
        print(f"# workload {args.workload}: scenario seeds {[s.seed for s in order]} (order from --seed {args.seed})")
        ledger = Ledger(reference)
        out = os.path.join(work, "out")
        if args.trace:
            os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
            spans_path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics, inconsistent = per_layer(order, ledger, out, args.seconds, started, spans_path)
        else:
            metrics, inconsistent = end_to_end(pool, order, ledger, out, args.seconds, started), ""
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not metrics:
        print("error: no successful simulate call to measure", file=sys.stderr)
        return 1
    if inconsistent:
        print(f"error: {inconsistent}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    share = ledger.failed / ledger.attempted
    print(f"ops_failed = {share:.6g} share ({ledger.failed} of {ledger.attempted} simulate calls)")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
