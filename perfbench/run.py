"""richgit's benchmark: one workload, measured from outside the program.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads are described in workloads.py.  Every sample is a fresh
process, so the module-level lru caches start cold as they do for a
user.  The program is imported from the checkout's ``src/``; without it
the benchmark exits with code 2.

--seconds has no default: BENCHMARK.json's run_seconds is the one run
length at which the metrics' bounds were checked.

--trace 0 repeats, until S seconds have passed, three calibration
probes, three set-up probes and one workload process, each a fresh
interpreter, and reports the end-to-end metrics, all calibrated (below)
except peak_rss_mb:

    wall_s          wall time of one workload process, stdout piped
    setup_s         import richgit + build the CLI parser, in a fresh process
    peak_rss_mb     the workload process's own peak RSS, from os.wait4
    pairs_per_s     pairs classified per second (analyze-random: of the
                    timed loop; CLI workloads: of the whole process)
    analyze_p50_us  per-pair analyze latency, median
    analyze_p99_us  per-pair analyze latency, 99th percentile
                    (analyze-random: over all calls of the run, each
                    calibrated with its own process's scale)

Only analyze-random times single analyze calls.  A CLI sweep yields one
amortized per-pair time per process, so there both percentiles give the
median of wall_s / pairs.

Timings are calibrated, not raw: each sample is multiplied by
CALIBRATION_REF_S over the median of the calibration probes run just
before it (rates are divided), and the metric is the median of the
calibrated samples.  The calibration probe is a fixed standard-library
import that runs no richgit code.  CALIBRATION_REF_S is the calibration
median of the seed-commit runs, so on the machine that recorded
BENCH_seed.json, at its median speed, calibrated times equal wall times.
On that shared 2-core machine the CPU's speed drifted by +-25% over
minutes and moved the raw medians of whole runs with it; the calibrated
ones spread about half as much.  The calibration assumes the probe
and the workloads slow down by the same factor; the probe is import
work (unmarshalling and running module code from the page cache), the
workloads are CPU-bound Python.  The raw medians and the scale factor
are printed with the metadata.

Every output is checked against goldens.json, recorded on the seed
commit; error_rate, the share of processes (of pairs, for
analyze-random) whose output differs, is the result's failed/attempted.

--trace 1 alternates an untraced and a traced process (trace_child.py)
on the same input and reports the per-layer metrics of the traced runs;
counts must repeat exactly across them.  Their times are raw seconds.

--smoke runs every workload once, untraced and traced, at reduced size,
and checks outputs only.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  The lines before it give run metadata and each metric with
its unit, median and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    ANALYZE,
    CLI_ENTRY,
    CLI_WORKLOADS,
    PAIRS_PER_SIDE,
    SMOKE_CLI_WORKLOADS,
    SMOKE_PAIRS_PER_SIDE,
    WORKLOADS,
    AnalyzeInputs,
    cli_golden,
    draw,
    load_goldens,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60.0
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import richgit.cli; "
    "richgit.cli.build_parser(); print(time.perf_counter() - t)"
)
# Fixed work of the same kind as set-up (imports in a fresh interpreter)
# that runs no richgit code, so its time follows only the machine's speed.
CALIBRATION_PROBE = (
    "import time; t = time.perf_counter(); import argparse, csv, dataclasses, "
    "email.message, fractions, http.client, json, logging, statistics, typing, "
    "unittest; print(time.perf_counter() - t)"
)
# Median calibration probe time over 80 runs on the seed commit (two sets
# of 10 seeds x 4 workloads, 2-core VM, Python 3.11.7: 0.0521 s and
# 0.0448 s).  BENCH_seed.json records it as meta.calibration_ref_s next
# to the median of its own set.
CALIBRATION_REF_S = 0.0478
# Probes per workload process: set-up is short and noisy, so it gets
# more samples, spread over the run like the workload's own.
SETUP_PROBES = 3
CALIBRATION_PROBES = 3
# Latency percentiles reported, highest first; one is shown only when at
# least ten samples lie beyond it.
PERCENTILES = (99.9, 99.0, 95.0, 90.0)


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


@dataclass
class Sample:
    wall_s: float
    rss_mb: float
    code: int
    out: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str]) -> Sample:
    """Run argv to completion; time it and take its own peak RSS."""
    start = time.perf_counter()
    with open(OUT / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_maxrss / 1024.0, proc.returncode, out)


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


def probe(code: str) -> float:
    """Run a probe in a fresh interpreter; return the time it prints."""
    sample = spawn(python("-c", code))
    if sample.code != 0:
        raise BenchError(f"probe failed with exit {sample.code}: {code}")
    return float(sample.out)


def check_checkout() -> None:
    if not (SRC / "richgit" / "__init__.py").is_file():
        raise BenchError(f"no richgit sources under {SRC}; run from a full checkout")
    OUT.mkdir(exist_ok=True)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def percentile(sorted_values, pct: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(sorted_values) -> tuple[float, float] | None:
    """(pct, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(sorted_values)
    for pct in PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(sorted_values, pct)
    return None


# ---------------------------------------------------------------- workloads


class CliWorkload:
    """A richgit CLI invocation checked against its golden record."""

    def __init__(self, name: str, smoke: bool, goldens: dict):
        self.name = name
        table = SMOKE_CLI_WORKLOADS if smoke else CLI_WORKLOADS
        self.argv = list(table[name])
        self.golden = goldens["smoke_cli" if smoke else "cli"][name]
        self.pairs = self.golden["pairs"]

    def run(self, traced: str | None = None, process: int | None = None) -> tuple[Sample, int]:
        """One process; returns the sample and how many runs failed (0 or 1).

        Every process gets the same input, so `process` is ignored.
        """
        if traced is None:
            sample = spawn(python("-c", CLI_ENTRY, *self.argv))
        else:
            sample = spawn(python(str(HERE / "trace_child.py"), traced, "cli", *self.argv))
        record = cli_golden(sample.out, sample.code)
        golden = {key: self.golden[key] for key in record}
        return sample, int(record != golden)

    def attempts(self, runs: int) -> int:
        return runs


class AnalyzeWorkload:
    """Fresh processes calling richgit.analyze on seeded pool pairs."""

    name = ANALYZE

    def __init__(self, seed: int, smoke: bool, goldens: dict):
        self.seed = seed
        self.per_side = SMOKE_PAIRS_PER_SIDE if smoke else PAIRS_PER_SIDE
        self.inputs = AnalyzeInputs(goldens["analyze"])
        self.process = 0
        self.results: list[dict] = []
        self.pairs = 6 * self.per_side

    def prepare(self, process: int) -> tuple[list[int], str]:
        picks = draw(self.seed, process, self.per_side)
        path = OUT / "analyze-inputs.json"
        self.inputs.write(picks, path)
        return picks, str(path)

    def run(self, traced: str | None = None, process: int | None = None) -> tuple[Sample, int]:
        """One process on the inputs of `process` (default: the next one)."""
        if process is None:
            process, self.process = self.process, self.process + 1
        picks, path = self.prepare(process)
        if traced is None:
            sample = spawn(python(str(HERE / "analyze_child.py"), path))
        else:
            sample = spawn(python(str(HERE / "trace_child.py"), traced, "analyze", path))
        if sample.code != 0:
            return sample, len(picks)
        result = json.loads(sample.out.splitlines()[-1])
        self.results.append(result)
        return sample, self.inputs.mismatches(picks, result["codes"])

    def attempts(self, runs: int) -> int:
        return runs * self.pairs


def make_workload(name: str, seed: int, smoke: bool, goldens: dict):
    if name == ANALYZE:
        return AnalyzeWorkload(seed, smoke, goldens)
    return CliWorkload(name, smoke, goldens)


# ---------------------------------------------------------- end-to-end run


def measure(workload, seconds: float) -> tuple[dict, int, int, dict]:
    """Alternate probes and workload processes for `seconds`.

    Times are calibrated per sample: each is multiplied by CALIBRATION_REF_S
    over the median of the calibration probes run just before it, and the
    metric is the median of the calibrated samples.  Pairing a sample with
    its neighbouring probes follows the machine's drift within the run
    more closely than one factor for the whole run.  The raw medians go
    into the metadata.
    """
    samples: list[Sample] = []
    scales: list[float] = []  # one per workload process
    setups: list[tuple[float, float]] = []  # (time, scale) per set-up probe
    calibration: list[float] = []
    analyzed: list[tuple[dict, float]] = []  # analyze-random (result, scale)
    failed = 0
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        probes = [probe(CALIBRATION_PROBE) for _ in range(CALIBRATION_PROBES)]
        calibration.extend(probes)
        scale = CALIBRATION_REF_S / statistics.median(probes)
        setups.extend((probe(SETUP_PROBE), scale) for _ in range(SETUP_PROBES))
        results = len(getattr(workload, "results", ()))
        sample, bad = workload.run()
        samples.append(sample)
        scales.append(scale)
        if len(getattr(workload, "results", ())) > results:
            analyzed.append((workload.results[-1], scale))
        failed += bad

    # name -> (unit, [(raw value, scale)]); rates divide by the scale.
    series = {
        "wall_s": ("s", [(s.wall_s, k) for s, k in zip(samples, scales)]),
        "setup_s": ("s", setups),
    }
    latencies = {}
    if isinstance(workload, AnalyzeWorkload) and analyzed:
        series["pairs_per_s"] = ("1/s", [(len(r["codes"]) / r["loop_s"], k) for r, k in analyzed])
        # Each call's latency is calibrated with its process's scale, then
        # the percentiles are taken over all calls of the run.
        pooled = sorted(ns * k / 1e3 for r, k in analyzed for ns in r["lat_ns"])
        raw_pooled = sorted(ns / 1e3 for r, _ in analyzed for ns in r["lat_ns"])
        for name, pct in (("analyze_p50_us", 50.0), ("analyze_p99_us", 99.0)):
            latencies[name] = (percentile(pooled, pct), percentile(raw_pooled, pct))
        counts = {"analyze_p50_us": len(pooled), "analyze_p99_us": len(pooled)}
    else:
        walls = series["wall_s"][1]
        series["pairs_per_s"] = ("1/s", [(workload.pairs / w, k) for w, k in walls])
        per_pair_us = [(w / workload.pairs * 1e6, k) for w, k in walls]
        series["analyze_p50_us"] = ("us", per_pair_us)
        series["analyze_p99_us"] = ("us", per_pair_us)
        counts = {}

    metrics = {}
    raw = {}
    for name, (unit, pairs) in series.items():
        calibrated = (value / k if unit == "1/s" else value * k for value, k in pairs)
        metrics[name] = (statistics.median(calibrated), unit)
        raw[name] = statistics.median(value for value, _ in pairs)
        counts.setdefault(name, len(pairs))
    for name, (value, raw_value) in latencies.items():
        metrics[name] = (value, "us")
        raw[name] = raw_value
    metrics["peak_rss_mb"] = (statistics.median(s.rss_mb for s in samples), "MB")
    counts["peak_rss_mb"] = len(samples)
    info = {
        "counts": counts,
        "calibration": {
            "median_s": statistics.median(calibration),
            "n": len(calibration),
            "scale": statistics.median(scales),
        },
        "raw": raw,
        "tails": _tails(samples, [t for t, _ in setups], workload),
    }
    return metrics, workload.attempts(len(samples)), failed, info


def _tails(samples: list[Sample], setups: list[float], workload) -> dict:
    """Raw highest percentiles with >= 10 samples beyond them."""
    series = {"wall_s": [s.wall_s for s in samples], "setup_s": setups}
    if isinstance(workload, AnalyzeWorkload):
        series["analyze_us"] = [ns / 1e3 for r in workload.results for ns in r["lat_ns"]]
    tails = {}
    for name, values in series.items():
        tail = tail_percentile(sorted(values))
        if tail:
            tails[name] = tail
    return tails


# ------------------------------------------------------------- traced run


def _read_spans(outbase: str) -> tuple[dict, list[array]]:
    with open(outbase + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["spans"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(outbase + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return meta, arrays


def self_times(meta: dict, arrays: list[array]) -> tuple[dict, dict]:
    """Calls and self time per span name: duration minus child spans'."""
    names, parents, starts, ends = arrays
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    calls = dict.fromkeys(meta["names"], 0)
    own = dict.fromkeys(meta["names"], 0.0)
    for i, nid in enumerate(names):
        name = meta["names"][nid]
        calls[name] += 1
        own[name] += ends[i] - starts[i] - covered[i]
    return calls, own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(outbase: str, output_bytes: int) -> tuple[dict, dict]:
    """Per-layer (counts, times) of one traced process."""
    meta, arrays = _read_spans(outbase)
    calls, own = self_times(meta, arrays)
    counts = meta["counts"]
    caches = meta["cache_info"]

    def own_of(*names: str) -> float:
        return sum(own.get(n, 0.0) for n in names)

    def hit_ratio(name: str) -> float:
        info = caches.get(name, {})
        return _ratio(info.get("hits", 0), info.get("hits", 0) + info.get("misses", 0))

    analyze_calls = calls.get("criteria.analyze", 0)
    diagram_spans = [n for n in calls if n.startswith("diagrams.")]
    layer_counts = {
        "core.index_validations": counts.get("core.index_validations", 0),
        "core.bruhat_cmp": counts.get("core.bruhat_cmp", 0),
        "diagrams.calls": sum(calls[n] for n in diagram_spans),
        "singular.richardson.calls": calls.get("singular.richardson_singular_components", 0),
        "singular.schubert.hit_ratio": hit_ratio("singular.schubert_singular_components"),
        "singular.opposite.hit_ratio": hit_ratio("singular.opposite_singular_components"),
        "singular.cache_entries": sum(
            info["currsize"] for name, info in caches.items() if name.startswith("singular.")
        ),
        "singular.kept_ratio": _ratio(
            counts.get("singular.kept", 0), counts.get("singular.candidates", 0)
        ),
        "criteria.analyze.calls": analyze_calls,
        "criteria.empty_components_ratio": _ratio(
            counts.get("criteria.empty_with_components", 0), analyze_calls
        ),
        "oracle.hook_oracle.calls": counts.get("oracle.hook_oracle_components", 0),
        "cli.output_bytes": output_bytes,
    }
    layer_times = {
        "core.enum_s": own_of("core.enumerate_indices", "core.indices_below", "core.indices_above"),
        "diagrams.s": own_of(*diagram_spans),
        "singular.richardson.s": own_of("singular.richardson_singular_components"),
        "criteria.analyze.self_s": own_of("criteria.analyze"),
        "oracle.census.s": own_of("oracle.census"),
        "oracle.oracle_sweep.s": own_of("oracle.oracle_sweep"),
        "cli.parse_s": own_of("cli.build_parser", "cli.parse_args"),
        "cli.serialize_s": own_of("cli.to_json", "cli._census_csv"),
        "cli.import_s": meta["import_s"],
    }
    return layer_counts, layer_times


COUNT_UNITS = {
    "singular.schubert.hit_ratio": "ratio",
    "singular.opposite.hit_ratio": "ratio",
    "singular.kept_ratio": "ratio",
    "criteria.empty_components_ratio": "ratio",
    "cli.output_bytes": "B",
}


def measure_traced(workload, seconds: float) -> tuple[dict, int, int, dict]:
    """Alternate untraced and traced processes on the same input."""
    outbase = str(OUT / f"trace-{workload.name}")
    plain: list[float] = []
    traced: list[float] = []
    times: list[dict] = []
    first_counts = None
    failed = 0
    repeat = True
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        sample, bad = workload.run(None, process=0)
        plain.append(sample.wall_s)
        failed += bad
        sample, bad = workload.run(outbase, process=0)
        traced.append(sample.wall_s)
        failed += bad
        output_bytes = len(sample.out) if isinstance(workload, CliWorkload) else 0
        counts, layer_times = layer_metrics(outbase, output_bytes)
        times.append(layer_times)
        if first_counts is None:
            first_counts = counts
        elif counts != first_counts:
            repeat = False
    metrics = {
        name: (value, COUNT_UNITS.get(name, "count")) for name, value in first_counts.items()
    }
    for name in times[0]:
        metrics[name] = (statistics.median(t[name] for t in times), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    runs = len(plain) + len(traced)
    info = {"counts": {"traced": len(traced), "untraced": len(plain)}, "counts_repeat": repeat}
    return metrics, workload.attempts(runs), failed, info


# ------------------------------------------------------------------- main


def report(metrics: dict, attempted: int, failed: int, meta: dict, correct: bool) -> None:
    print("# meta " + json.dumps(meta, sort_keys=True))
    counts = meta.get("counts", {})
    raw = meta.get("raw", {})
    for name, (value, unit) in metrics.items():
        notes = [f"calibrated, raw {raw[name]:.6g}"] if name in raw else []
        notes += [f"n={counts[name]}"] if name in counts else []
        print(f"# {name} = {value:.6g} {unit}" + (f" ({', '.join(notes)})" if notes else ""))
    for name, (pct, tail) in meta.get("tails", {}).items():
        print(f"# raw p{pct:g} of {name} = {tail:.6g}")
    print(f"# error_rate = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def smoke() -> int:
    """Every workload once, untraced and traced, at reduced size."""
    goldens = load_goldens()
    bad = 0
    for name in WORKLOADS:
        workload = make_workload(name, 1, True, goldens)
        _, plain_failed = workload.run(None, process=0)
        _, traced_failed = workload.run(str(OUT / f"trace-{name}"), process=0)
        counts, _ = layer_metrics(str(OUT / f"trace-{name}"), 0)
        ok = not plain_failed and not traced_failed and counts["criteria.analyze.calls"] > 0
        print(f"# smoke {name}: {'ok' if ok else 'FAILED'}")
        bad += not ok
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="quick output check of every workload")
    args = parser.parse_args(argv)
    if not args.smoke and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required unless --smoke is given")
    try:
        check_checkout()
        if args.smoke:
            return smoke()
        workload = make_workload(args.workload, args.seed, False, load_goldens())
        measured = measure_traced if args.trace else measure
        metrics, attempted, failed, info = measured(workload, args.seconds)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    meta.update(info)
    correct = failed == 0 and info.get("counts_repeat", True)
    report(metrics, attempted, failed, meta, correct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
