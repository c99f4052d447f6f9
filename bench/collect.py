#!/usr/bin/env python3
"""Run bench/run.py over every workload of BENCHMARK.json and seeds, print every metric, write a results file.

    python3 bench/collect.py --seeds 0-9 --trace 0,1 --out bench/results/BENCH_<commit>.json

Runs one process at a time (seed-major, so slow drift of the machine
spreads over all workloads).  For each end-to-end metric it reports the
median, quartiles and spread (interquartile range over median) across
seeds, against the metric's bound in BENCHMARK.json; ``ops_failed`` is
the share of checked simulate calls that failed, with both counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from record_reference import parse_seeds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    provenance = next((json.loads(line.split(" ", 2)[2]) for line in lines if line.startswith("# provenance ")), {})
    return json.loads(lines[-1]), provenance


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", default="0", help="0, 1 or 0,1")
    parser.add_argument("--out", default=None, help="results file to write")
    args = parser.parse_args(argv)
    workloads, seeds = [w["name"] for w in bench["workloads"]], parse_seeds(args.seeds)
    traces = [int(t) for t in args.trace.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: {t: [] for t in traces} for w in workloads}
    provenance: dict = {}
    started = time.time()
    for seed in seeds:
        for workload in workloads:
            for trace in traces:
                result, provenance = one_run(workload, seed, args.seconds, trace)
                runs[workload][trace].append(result)
                print(f"[{time.time() - started:6.0f} s] {workload} seed {seed} trace {trace}: "
                      f"correct={result['correct']} {result['failed']}/{result['attempted']} failed", flush=True)

    report: dict = {"provenance": {**provenance, "seeds": seeds, "run_seconds": args.seconds},
                    "workloads": {}}
    ok = True
    for workload in workloads:
        entry = report["workloads"][workload] = {}
        all_runs = [r for t in traces for r in runs[workload][t]]
        attempted = sum(r["attempted"] for r in all_runs)
        failed = sum(r["failed"] for r in all_runs)
        entry["ops_failed"] = {"share": failed / attempted, "failed": failed, "attempted": attempted}
        print(f"\n{workload}: ops_failed = {failed / attempted:.4g} share ({failed} of {attempted} simulate calls)")
        ok &= failed == 0
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            if trace not in traces:
                continue
            results = runs[workload][trace]
            entry[section] = {}
            for name, first in results[0]["metrics"].items():
                stats = summarize([r["metrics"][name]["value"] for r in results])
                stats["unit"] = first["unit"]
                line = (f"  {name:28s} median {stats['median']:.6g} {stats['unit']}  "
                        f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.4f}")
                if name in bounds:
                    stats["bound"] = bounds[name]
                    line += f"  bound {bounds[name]} ({'ok' if stats['spread'] <= bounds[name] else 'TOO WIDE'}" \
                            f"{', under a third' if stats['spread'] <= bounds[name] / 3 else ''})"
                entry[section][name] = stats
                print(line)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
