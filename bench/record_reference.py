#!/usr/bin/env python3
"""Record the reference digests that bench/run.py checks every simulate call against.

    python3 bench/record_reference.py                      # the committed pool
    python3 bench/record_reference.py --scenario-seeds 100-107 --out .bench_out/heldout.json.gz

The committed ``bench/reference.json.gz`` was recorded from the seed
commit named in its ``recorded_from`` field; re-record it only when a
change is meant to alter simulation outputs, and say so.  Each scenario
must also pass the reference-free invariants of check.py before it is
recorded.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import sys
import tempfile

import run


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--scenario-seeds", default="0-7", help="inclusive range, e.g. 0-7")
    parser.add_argument("--out", default=run.DEFAULT_REFERENCE)
    args = parser.parse_args(argv)
    if run.import_program() is None:
        print(f"error: cannot import uavcharge from {run.SRC}", file=sys.stderr)
        return 2
    import check
    from workloads import WORKLOADS

    recorded = {"format": 1, "recorded_from": run.provenance()["commit"],
                "rel_tol": check.REL_TOL, "balance_tol_j": check.BALANCE_TOL_J, "workloads": {}}
    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(run.ROOT, ".bench_work"))
    try:
        for name in WORKLOADS:
            digests = recorded["workloads"][name] = {}
            for seed in parse_seeds(args.scenario_seeds):
                scenario = run.prepare(name, seed, work)
                out = os.path.join(work, "out")
                if run.simulate(scenario, out) != 0:
                    print(f"error: {name} scenario {seed}: simulate failed", file=sys.stderr)
                    return 1
                outputs = check.read_outputs(out)
                problems = check.invariants(outputs, scenario.initial, scenario.slots_per_unit)
                if problems:
                    print(f"error: {name} scenario {seed}: " + "; ".join(problems[:5]), file=sys.stderr)
                    return 1
                digests[str(seed)] = check.digest(outputs, scenario.slots_per_unit)
                print(f"{name} scenario {seed}: recorded")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with gzip.GzipFile(args.out, "wb", mtime=0) as fh:
        fh.write(json.dumps(recorded, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
