"""Mutation check: flip comparisons and small constants, and see which flips the tests miss.

Usage, from the root of a checkout:

    python tools/mutate.py [--timeout S] FILE [FILE ...]

FILE is a Python file of the checkout, such as src/richgit/criteria.py.
Each mutant changes one token of one file:
  - an operator of a comparison: < and <=, > and >= swap;
  - a constant 1 or 2 that is an operand of + or -: 1 and 2 swap.
Each is written into one temporary copy of the checkout, where
``python -m pytest -x -q`` runs tier-1 against it.  A mutant is killed
when that run fails, and survives when it passes; a run that passes the
per-mutant timeout is stopped and reported as a timeout.  That timeout
is three times the unmutated copy's own run, and at least 60 s, so a
mutant that makes a loop spin costs a few tier-1 runs, not a fixed
wait; --timeout S sets it instead, and bounds the unmutated run too.
The script prints one line per mutant and then the survivors, and exits
with 1 if any mutant survives.  It needs only the standard library and is
not part of tier-1: each mutant costs up to one tier-1 run.

A survivor is either a missing test or an equivalent mutant, one that no
input can tell from the original.  A run over every module of
src/richgit leaves these four, all equivalent:
  - core._fmt_int: ``x < 0`` -> ``x <= 0`` never sees 0, which the range
    test before it returns early.
  - core.GrassIndex.__post_init__: the bounds of the fast path only send
    valid input on to the slow path, which accepts it.
  - core._interval: indices_above never reads the extra entry that a
    longer top tuple would give.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">")}
CONSTANTS = {1: "2", 2: "1"}
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", "*.egg-info"
)


class Mutant(NamedTuple):
    """One token of path (relative to the checkout) replaced: bytes start..end, old -> new."""

    path: str
    line: int
    col: int
    start: int
    end: int
    old: str
    new: str

    def apply(self, source: bytes) -> bytes:
        return source[: self.start] + self.new.encode() + source[self.end :]

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.old} -> {self.new}"


def mutants(root: Path, path: str) -> list[Mutant]:
    """Every mutant of the file root/path, in source order."""
    source = (root / path).read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    out = []

    def add(lineno: int, col: int, old: str, new: str) -> None:
        # ast columns count UTF-8 bytes, as do the offsets here
        start = starts[lineno - 1] + col
        out.append(Mutant(path, lineno, col + 1, start, start + len(old), old, new))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            left = node.left
            for op, right in zip(node.ops, node.comparators):
                if type(op) in FLIPS:
                    old, new = FLIPS[type(op)]
                    lo = starts[left.end_lineno - 1] + left.end_col_offset
                    gap = source[lo : starts[right.lineno - 1] + right.col_offset]
                    # the operator sits between its operands, among spaces and parentheses
                    at = gap.find(old.encode())
                    if gap.replace(old.encode(), b"", 1).strip(b" \t\n()\\") == b"":
                        line = source.count(b"\n", 0, lo + at) + 1
                        add(line, lo + at - starts[line - 1], old, new)
                left = right
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            for side in (node.left, node.right):
                if isinstance(side, ast.Constant) and type(side.value) is int:
                    lo = starts[side.lineno - 1] + side.col_offset
                    old = source[lo : starts[side.end_lineno - 1] + side.end_col_offset].decode()
                    if side.value in CONSTANTS and old == str(side.value):
                        add(side.lineno, side.col_offset, old, CONSTANTS[side.value])
    return sorted(out, key=lambda m: m.start)


def copy_checkout(root: Path, dest: Path) -> Path:
    """A copy of the checkout at root in dest/checkout, without VCS and cache folders."""
    return Path(shutil.copytree(root, dest / "checkout", ignore=IGNORE))


def run(copy: Path, mutant: Mutant | None, pytest_args: list[str], timeout: float) -> str:
    """'killed', 'survived' or 'timeout' for pytest in copy with mutant applied (None: as is).

    The mutated file is restored afterwards.  No bytecode is written, so a
    mutant of the same size and mtime as the original is never read from
    a stale cache.
    """
    target = copy / mutant.path if mutant else None
    original = target.read_bytes() if target else b""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    env.pop("PYTEST_ADDOPTS", None)
    try:
        if target:
            target.write_bytes(mutant.apply(original))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args],
            cwd=copy,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    finally:
        if target:
            target.write_bytes(original)
    return "survived" if proc.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("files", nargs="+", help="Python files of the checkout to mutate")
    parser.add_argument(
        "--timeout",
        type=float,
        help="seconds per mutant (default: 3 times the unmutated run, at least 60)",
    )
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    paths = [Path(f).resolve().relative_to(root).as_posix() for f in args.files]
    todo = [m for path in paths for m in mutants(root, path)]
    print(f"{len(todo)} mutants in {', '.join(paths)}", flush=True)
    outcomes = {}
    with tempfile.TemporaryDirectory() as tmp:
        copy = copy_checkout(root, Path(tmp))
        # without --timeout the unmutated run may take up to half an hour
        start = time.monotonic()
        if run(copy, None, [], args.timeout or 1800.0) != "survived":
            print("tier-1 fails on the unmutated copy; nothing to compare against")
            return 2
        timeout = args.timeout or max(60.0, 3 * (time.monotonic() - start))
        print(f"per-mutant timeout {timeout:.0f} s", flush=True)
        for i, mutant in enumerate(todo, 1):
            outcomes[mutant] = run(copy, mutant, [], timeout)
            print(f"[{i}/{len(todo)}] {outcomes[mutant]:8} {mutant}", flush=True)
    survivors = [m for m, outcome in outcomes.items() if outcome == "survived"]
    timeouts = sum(outcome == "timeout" for outcome in outcomes.values())
    print(f"{len(todo)} mutants: {len(survivors)} survived, {timeouts} timed out")
    for mutant in survivors:
        print(f"survivor: {mutant}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
