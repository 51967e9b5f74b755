"""Record goldens.json: the outputs every benchmark run is checked against.

Usage (from the root of a checkout): python3 perfbench/record_goldens.py

Run it only on a commit whose outputs are known good; goldens.json in
the repository was recorded on the seed commit.  For each CLI workload,
full and smoke size, it stores exit code, byte count, sha256 and the
number of pairs the run classifies.  For analyze-random it runs every
pair of the fixed pool once and stores one outcome code per pair, plus a
digest over the pool's (v, w, verdict, smooth_by_pattern) records.
"""

from __future__ import annotations

import json
import sys

from run import HERE, OUT, check_checkout, git_commit, python, spawn
from workloads import (
    CLI_ENTRY,
    CLI_WORKLOADS,
    GOLDENS,
    SMOKE_CLI_WORKLOADS,
    cli_golden,
    make_pool,
    records_digest,
)


def pairs_in(argv: tuple[str, ...], out: bytes) -> int:
    if "csv" in argv:
        return out.count(b"\n") - 1
    data = json.loads(out)
    if argv[0] == "verify":
        return sum(c["total_pairs"] for c in data["contexts"])
    return data["total_pairs"]


def summary(argv: tuple[str, ...], out: bytes) -> dict:
    """Headline figures of a JSON output, for a reader of goldens.json."""
    if "csv" in argv:
        return {}
    data = json.loads(out)
    if argv[0] == "verify":
        return {
            key: data[key]
            for key in ("pattern_mismatch_total", "oracle_mismatch_total", "passed")
        }
    return {
        "smooth_count": data["smooth_count"],
        "singular_count": data["singular_count"],
        "mismatches": len(data["mismatches"]),
    }


def record_cli(table: dict) -> dict:
    goldens = {}
    for name, argv in table.items():
        sample = spawn(python("-c", CLI_ENTRY, *argv))
        goldens[name] = {
            "argv": list(argv),
            **cli_golden(sample.out, sample.code),
            "pairs": pairs_in(argv, sample.out),
            **summary(argv, sample.out),
        }
        print(f"{name}: {goldens[name]}", file=sys.stderr)
    return goldens


def record_pool() -> dict:
    pool = make_pool()
    path = OUT / "analyze-pool.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([list(p[:4]) for p in pool], fh)
    sample = spawn(python(str(HERE / "analyze_child.py"), str(path)))
    if sample.code != 0:
        raise SystemExit(f"analyze over the pool failed with exit {sample.code}")
    codes = json.loads(sample.out)["codes"]
    return {"pairs": len(pool), "pool_sha256": records_digest(pool, codes), "codes": codes}


def main() -> int:
    check_checkout()
    goldens = {
        "recorded_on": git_commit(),
        "cli": record_cli(CLI_WORKLOADS),
        "smoke_cli": record_cli(SMOKE_CLI_WORKLOADS),
        "analyze": record_pool(),
    }
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
