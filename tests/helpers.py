"""Helpers shared by the test modules: index shorthand, context lists, the
per-pair reference census, a text comparison that reports large texts and
a fresh interpreter to see what an import loads."""

import csv
import io
import subprocess
import sys
from itertools import groupby
from math import gcd
from pathlib import Path

import pytest

from richgit import (
    SMOOTH,
    GrassCtx,
    PatternMismatch,
    analyze,
    indices_above,
    indices_below,
    make_index,
    minimal_pair,
)

G49 = GrassCtx(4, 9)


def idx(values, ctx=G49):
    return make_index(values, ctx)


def coprime_ctxs(max_n, min_k=1):
    return [
        GrassCtx(k, n)
        for n in range(2, max_n + 1)
        for k in range(min_k, n)
        if gcd(k, n) == 1
    ]


def all_small_ctxs(max_n):
    return [GrassCtx(k, n) for n in range(2, max_n + 1) for k in range(1, n)]


def runs(p):
    return [(value, len(list(g))) for value, g in groupby(x for x in p.parts if x)]


def admissible_reports(ctx):
    """analyze(v, w, ctx) for every v <= v_min and w >= w_min, v-major.

    Both intervals in lexicographic order.  census builds its verdicts
    from the edge pairs alone; this is the per-pair loop it is checked
    against, and it assumes nothing of the product.
    """
    mp = minimal_pair(ctx)
    ws = indices_above(mp.w_min)
    for v in indices_below(mp.v_min):
        for w in ws:
            yield analyze(v, w, ctx)


def per_pair_census(ctx):
    """(total pairs, smooth count, mismatches, CSV text) from admissible_reports.

    The mismatches are PatternMismatch records in pair order, and the CSV
    text is the one census --format csv prints.
    """
    total = smooth = 0
    mismatches = []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "n", "v", "w", "dimension", "has_semistable", "smooth"])
    for rep in admissible_reports(ctx):
        total += 1
        smooth += rep.verdict == SMOOTH
        if rep.mismatch:
            mismatches.append(
                PatternMismatch(
                    rep.pair.v, rep.pair.w, rep.smooth_by_components, rep.smooth_by_pattern
                )
            )
        writer.writerow(
            [
                ctx.k,
                ctx.n,
                ",".join(str(e) for e in rep.pair.v.entries),
                ",".join(str(e) for e in rep.pair.w.entries),
                rep.dimension,
                "true" if rep.has_semistable else "false",
                "true" if rep.smooth_by_components else "false",
            ]
        )
    return total, smooth, tuple(mismatches), buf.getvalue()


def census_text(rep):
    """census's text output, each mismatch line formatted on its own.

    It reads rep.mismatches, the PatternMismatch records of the product:
    the reference for cli._census_text, which reads the factored rows and
    ws and formats each smooth w once.
    """
    lines = [
        f"census of {rep.ctx}:",
        f"  total_pairs: {rep.total_pairs}",
        f"  smooth_count: {rep.smooth_count}",
        f"  singular_count: {rep.singular_count}",
        f"  pattern mismatches: {len(rep.mismatches)}",
        f"  oracle mismatches: {len(rep.oracle_mismatches)}",
    ]
    for m in rep.mismatches:
        components = str(m.smooth_by_components).lower()
        pattern = str(m.smooth_by_pattern).lower()
        lines.append(f"    v={m.v} w={m.w} components={components} pattern={pattern}")
    if rep.consistency_failures:
        lines.append(f"  consistency failures: {len(rep.consistency_failures)}")
    for f in rep.consistency_failures:
        lines.append(
            f"    {f.clause} at {f.index}: census={str(f.holds).lower()} "
            f"oracle={str(not f.holds).lower()}"
        )
    return "\n".join(lines) + "\n"


def assert_same_text(out, expected):
    """out == expected, failing with the first offset where they differ.

    pytest's own report on two unequal texts of megabytes takes minutes.
    """
    if out != expected:
        i = next((i for i, (a, b) in enumerate(zip(out, expected)) if a != b), len(out))
        lo = max(0, i - 40)
        pytest.fail(
            f"texts differ at offset {i} (lengths {len(out)}, {len(expected)}): "
            f"{out[lo:i + 40]!r} != {expected[lo:i + 40]!r}"
        )


SRC = Path(__file__).resolve().parent.parent / "src"
# the richgit submodules loaded, short names in order, as print arguments
LOADED = "*sorted(m[8:] for m in sys.modules if m.startswith('richgit.'))"


def cold_run(code):
    """stdout, stderr and the exit status of code in a fresh interpreter.

    -I -S keep the environment's site hooks out of what it loads, and -B
    (which -I would otherwise drop with PYTHONDONTWRITEBYTECODE) keeps it
    from writing bytecode into the checkout.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60
    )
    return proc.stdout, proc.stderr, proc.returncode
