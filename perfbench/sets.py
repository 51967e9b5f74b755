"""Run sets of benchmark runs, interleaved, and write a BENCH record.

Usage (from the root of a checkout):

    python3 perfbench/sets.py --out perfbench/BENCH_seed.json

Each of ROUNDS rounds runs every workload once through run.py, a fresh
process per run, with seed first_seed + round.  Workloads go round-robin
and the order reverses every round, so machine drift does not land on
one workload.  For each end-to-end metric the record gives the median,
the quartiles and the spread (q3 - q1) / median across rounds, next to
the metric's bound from BENCHMARK.json; its metadata gives the set's
median calibration probe time next to run.py's CALIBRATION_REF_S.  Two
traced runs per workload follow, and the record says whether their
counts repeat exactly.

Claims use DEV_SEED while a change is written and are repeated with
HELD_OUT_SEED (as --first-seed) before they are made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import CALIBRATION_REF_S, git_commit
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEV_SEED = 1
HELD_OUT_SEED = 1009
ROUNDS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py run: its result line and its metadata line."""
    argv = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    meta = next(line for line in lines if line.startswith("# meta "))
    return json.loads(lines[-1]), json.loads(meta[len("# meta "):])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=DEV_SEED)
    parser.add_argument("--out", help="write the BENCH record here")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    metas: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for r in range(ROUNDS):
        order = WORKLOADS if r % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            res, meta = run_once(workload, args.first_seed + r, seconds, 0)
            results[workload].append(res)
            metas[workload].append(meta)
            print(f"round {r} {workload}: " + json.dumps(res), file=sys.stderr)

    record = {
        "meta": {
            "started": started,
            "python": platform.python_version(),
            "host": platform.node(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
            "seeds": [args.first_seed, args.first_seed + ROUNDS - 1],
            "held_out_seed": HELD_OUT_SEED,
            "rounds": ROUNDS,
            "calibration_ref_s": CALIBRATION_REF_S,
            "calibration_median_s": statistics.median(
                m["calibration"]["median_s"] for ms in metas.values() for m in ms
            ),
            "run_seconds": seconds,
        },
        "end_to_end": {},
        "per_layer": {},
    }
    worst = 0.0
    for workload, runs in results.items():
        rows = {}
        for name, bound in bounds.items():
            values = [res["metrics"][name]["value"] for res in runs]
            row = spread(values)
            row["unit"] = runs[0]["metrics"][name]["unit"]
            row["bound"] = bound
            rows[name] = row
            worst = max(worst, row["spread"] / bound)
            print(
                f"{workload:15} {name:15} median {row['median']:.6g} {row['unit']:4} "
                f"spread {row['spread']:.3f} (bound {bound})"
            )
        rows["raw_wall_s"] = spread([m["raw"]["wall_s"] for m in metas[workload]])
        rows["scale"] = [m["calibration"]["scale"] for m in metas[workload]]
        rows["correct"] = all(res["correct"] for res in runs)
        rows["attempted"] = sum(res["attempted"] for res in runs)
        rows["failed"] = sum(res["failed"] for res in runs)
        rows["error_rate"] = rows["failed"] / rows["attempted"]
        record["end_to_end"][workload] = rows
    print(f"largest spread / bound: {worst:.3f}")

    for workload in WORKLOADS:
        first, second = (run_once(workload, args.first_seed, seconds, 1)[0] for _ in range(2))
        counts = {
            name: (m["value"], second["metrics"][name]["value"])
            for name, m in first["metrics"].items()
            if m["unit"] != "s"
        }
        repeat = all(a == b for a, b in counts.values())
        record["per_layer"][workload] = {
            "metrics": {name: m["value"] for name, m in first["metrics"].items()},
            "units": {name: m["unit"] for name, m in first["metrics"].items()},
            "counts_repeat": repeat,
        }
        print(f"{workload}: traced counts repeat exactly: {repeat}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
