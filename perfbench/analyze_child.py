"""One analyze-random process: call richgit.analyze on every input pair.

Usage: python3 analyze_child.py INPUTS.json

INPUTS.json holds [[k, n, v, w], ...].  Contexts are built before the
timed loop; v and w reach analyze as raw int tuples, so every call
validates them.  Prints one JSON line: the loop time, one outcome code
per pair (see workloads.CODES) and every call's latency in ns.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from workloads import CODES


def load_jobs(path: str, grass_ctx) -> list:
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    contexts = {}
    jobs = []
    for k, n, v, w in raw:
        ctx = contexts.get((k, n))
        if ctx is None:
            ctx = contexts[k, n] = grass_ctx(k, n)
        jobs.append((tuple(v), tuple(w), ctx))
    return jobs


def run_pairs(analyze, jobs: list) -> dict:
    clock = time.perf_counter_ns
    latencies = array("q")
    codes = []
    start = clock()
    for v, w, ctx in jobs:
        t = clock()
        rep = analyze(v, w, ctx)
        latencies.append(clock() - t)
        codes.append(CODES.get((rep.verdict, rep.smooth_by_pattern), "?"))
    loop_ns = clock() - start
    return {
        "loop_s": loop_ns / 1e9,
        "codes": "".join(codes),
        "lat_ns": latencies.tolist(),
    }


def main() -> int:
    import richgit

    result = run_pairs(richgit.analyze, load_jobs(sys.argv[1], richgit.GrassCtx))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
