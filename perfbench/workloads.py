"""The benchmark's workloads, their inputs and their golden outputs.

Three workloads run the ``richgit`` command line the way a user does, one
fresh process per run.  The fourth, ``analyze-random``, runs a fresh
process that calls ``richgit.analyze`` in a loop on seeded random pairs.

Why these four:

* ``verify-default`` is the frontier reference run: 45 small coprime
  contexts with n <= 12, so per-context fixed costs (enumeration,
  ``minimal_pair``, one ``oracle_sweep`` per context) count.
* ``census-json`` is one large context, G(5,14), with hot caches; the
  per-pair ``analyze`` loop dominates and ~1 MB of JSON is written.  A
  factorized census acts here most.
* ``census-csv`` is the same pairs through the separate row-emitting loop
  in ``cli._census_csv``, with no oracle sweep, so a census change that
  helps JSON but slows the row path shows.
* ``analyze-random`` bypasses the census: it is cache-cold, validates
  every input and has half of its pairs outside the admissible rectangle.
  A census optimization should leave it flat.

The ``analyze-random`` inputs come from a fixed pool of pairs whose
verdicts were recorded on the seed commit (``goldens.json``).  The
workload seed picks which pool pairs a process gets and in which order,
so any seed can be checked against the golden verdicts.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

# Runs the installed console script's entry point on the checkout's sources.
CLI_ENTRY = "import sys; from richgit.cli import main; sys.exit(main())"

CLI_WORKLOADS: dict[str, tuple[str, ...]] = {
    "verify-default": ("verify", "--format", "json"),
    "census-json": ("census", "-k", "5", "-n", "14", "--format", "json"),
    "census-csv": ("census", "-k", "5", "-n", "14", "--format", "csv"),
}
# Reduced sizes for the smoke mode: same code paths, a fraction of the time.
SMOKE_CLI_WORKLOADS: dict[str, tuple[str, ...]] = {
    "verify-default": ("verify", "--ctx", "3,8", "--ctx", "4,9", "--format", "json"),
    "census-json": ("census", "-k", "4", "-n", "9", "--format", "json"),
    "census-csv": ("census", "-k", "4", "-n", "9", "--format", "csv"),
}
ANALYZE = "analyze-random"
WORKLOADS = (*CLI_WORKLOADS, ANALYZE)

# analyze-random: a pool of POOL_PER_SIDE pairs inside and as many outside
# the admissible rectangle, per context; each process draws PAIRS_PER_SIDE
# of each kind per context, so 6 * PAIRS_PER_SIDE pairs per process.
CONTEXTS = ((7, 16), (9, 20), (11, 24))
POOL_SEED = 20211215
POOL_PER_SIDE = 5000
PAIRS_PER_SIDE = 1000
SMOKE_PAIRS_PER_SIDE = 10

# One character per (verdict, smooth_by_pattern) outcome of analyze.
CODES = {
    ("EMPTY_QUOTIENT", None): "e",
    ("SMOOTH", True): "S",
    ("SMOOTH", False): "s",
    ("SINGULAR", False): "X",
    ("SINGULAR", True): "x",
}
OUTCOMES = {code: outcome for outcome, code in CODES.items()}


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def cli_golden(out: bytes, code: int) -> dict:
    """The record a CLI run is checked against: exit code, size, digest."""
    return {
        "exit": code,
        "bytes": len(out),
        "sha256": hashlib.sha256(out).hexdigest(),
    }


def minimal_pair(k: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(v_min, w_min) of a coprime context, computed from a_i = ceil(i n / k)."""
    a = tuple((i * n + k - 1) // k for i in range(1, k + 1))
    return (1,) + a[:-1], a


def _random_index(rng: random.Random, k: int, n: int) -> tuple[int, ...]:
    return tuple(sorted(rng.sample(range(1, n + 1), k)))


def _leq(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def make_pool() -> list[tuple[int, int, tuple[int, ...], tuple[int, ...], bool]]:
    """All candidate pairs (k, n, v, w, inside), regenerated from POOL_SEED.

    Inside pairs take the componentwise min of a random index with v_min
    and the max of another with w_min, so v <= v_min <= w_min <= w.
    Outside pairs take the componentwise min and max of two random
    indices, so v <= w and X^v_w is nonempty, and are redrawn until they
    miss the rectangle.  No pair makes analyze raise.
    """
    rng = random.Random(POOL_SEED)
    pool = []
    for k, n in CONTEXTS:
        v_min, w_min = minimal_pair(k, n)
        for _ in range(POOL_PER_SIDE):
            v = tuple(map(min, _random_index(rng, k, n), v_min))
            w = tuple(map(max, _random_index(rng, k, n), w_min))
            pool.append((k, n, v, w, True))
        for _ in range(POOL_PER_SIDE):
            while True:
                a, b = _random_index(rng, k, n), _random_index(rng, k, n)
                v, w = tuple(map(min, a, b)), tuple(map(max, a, b))
                if not (_leq(v, v_min) and _leq(w_min, w)):
                    break
            pool.append((k, n, v, w, False))
    return pool


def records_digest(pairs, codes: str) -> str:
    """sha256 over the per-pair (v, w, verdict, smooth_by_pattern) records."""
    h = hashlib.sha256()
    for (k, n, v, w, _), code in zip(pairs, codes, strict=True):
        verdict, pattern = OUTCOMES.get(code, ("?", "?"))
        h.update(f"{k},{n}|{v}|{w}|{verdict}|{pattern}\n".encode())
    return h.hexdigest()


def draw(seed: int, process: int, per_side: int) -> list[int]:
    """Pool positions for one analyze-random process, in call order.

    Takes per_side inside and per_side outside pairs from every context,
    without repeats, then shuffles them together.
    """
    rng = random.Random(f"{ANALYZE}:{seed}:{process}")
    picks: list[int] = []
    for c in range(len(CONTEXTS)):
        for side in range(2):
            base = (2 * c + side) * POOL_PER_SIDE
            picks.extend(base + i for i in rng.sample(range(POOL_PER_SIDE), per_side))
    rng.shuffle(picks)
    return picks


class AnalyzeInputs:
    """The regenerated pool and its golden codes, checked against goldens.json."""

    def __init__(self, golden: dict):
        self.pool = make_pool()
        self.codes = golden["codes"]
        if records_digest(self.pool, self.codes) != golden["pool_sha256"]:
            raise RuntimeError(
                "regenerated analyze-random pool does not match goldens.json"
            )

    def write(self, picks: list[int], path: Path) -> None:
        """Write the pairs a process gets as JSON: [[k, n, v, w], ...]."""
        jobs = [list(self.pool[i][:4]) for i in picks]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(jobs, fh)

    def mismatches(self, picks: list[int], codes: str) -> int:
        """Pairs whose reported outcome differs from the golden one."""
        if len(codes) != len(picks):
            return len(picks)
        return sum(code != self.codes[i] for i, code in zip(picks, codes))
