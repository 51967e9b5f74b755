"""Brute-force validators and exhaustive reports.

hook_oracle_components recomputes Schubert singular loci by explicit
cell-set manipulation on the diagram grid, sharing none of the
hook-removal code, so the two routes check each other.

admissible_reports analyzes every pair (v, w) with v <= v_min and
w >= w_min of one coprime context.  census aggregates it, cross-checking
the component criterion against the pattern shortcut and the
hook-removal formula against the cell-set oracle.
verify aggregates censuses over a context list (default: all coprime
(k, n) with n <= 12) into one deterministic, machine-readable report.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .core import (
    GrassCtx,
    GrassIndex,
    enumerate_indices,
    indices_above,
    indices_below,
)
from .criteria import (
    SINGULAR,
    SMOOTH,
    AnalysisReport,
    analyze,
    minimal_pair,
)
from .singular import schubert_singular_components

ERRATUM_NOTES: tuple[str, ...] = (
    "Known typo in the literature: the worked singular locus of X((3,5,7,9)) "
    "in G(4,9) once prints the component (3,4,5,7) in running text; the "
    "accompanying diagrams and later usage force (3,4,5,9).",
    "Known discrepancy in the literature: the worked singular locus of "
    "X^(1,3,4,6)_(3,5,7,9) lists the opposite-side component (1,3,7,9); hook "
    "removal on the complemented index yields (1,3,6,7).  Both fail the "
    "semistability test, so the smooth verdict is unaffected.",
    "The component smoothness condition is sometimes stated as a conjunction "
    "over components (w_i not >= w_min AND v_i not <= v_min for all i); read "
    "literally it is vacuously false whenever a Schubert-side component "
    "exists, since that component keeps v as its lower index.  Implemented "
    "reading: no singular component admits semistable points.",
    "A published derivation step for the opposite-side pattern clause asserts "
    "a_{j-1} >= c_j + 1 where the stated criterion requires "
    "a_{j-1} <= c_j + 1; the stated criterion is the one implemented.",
)


def hook_oracle_components(w: GrassIndex) -> frozenset[GrassIndex]:
    """Singular-locus components of X(w), recomputed from explicit cell sets.

    Valleys are detected cell by cell; the hook through a valley at
    (row j, column c) is the column of cells below it plus the tail of
    row j from column c rightwards, and removing it yields one component.
    """
    ctx = w.ctx
    width = ctx.n - ctx.k
    cells = {
        (i, c)
        for i, e in enumerate(w.entries, start=1)
        for c in range(1, e - i + 1)
    }
    valleys = sorted(
        (i, c)
        for (i, c) in cells
        if (i - 1, c) in cells and (i, c + 1) in cells and (i - 1, c + 1) not in cells
    )
    out = set()
    for j, c in valleys:
        hook = {(t, c) for t in range(1, j) if (t, c) in cells}
        hook |= {(j, cc) for cc in range(c, width + 1) if (j, cc) in cells}
        rest = cells - hook
        rows = [0] * ctx.k
        for i, _ in rest:
            rows[i - 1] += 1
        out.add(GrassIndex(tuple(r + i for i, r in enumerate(rows, start=1)), ctx))
    return frozenset(out)


@dataclass(frozen=True)
class OracleMismatch:
    """Disagreement between the hook-removal formula and the cell-set oracle."""

    w: GrassIndex
    formula: tuple[GrassIndex, ...]
    oracle: tuple[GrassIndex, ...]

    def to_dict(self) -> dict:
        return {
            "w": list(self.w.entries),
            "formula": sorted(list(c.entries) for c in self.formula),
            "oracle": sorted(list(c.entries) for c in self.oracle),
        }


def oracle_sweep(ctx: GrassCtx) -> tuple[OracleMismatch, ...]:
    """Compare formula and oracle components for every w in I(k,n)."""
    out = []
    for w in enumerate_indices(ctx):
        formula = frozenset(schubert_singular_components(w))
        oracle = hook_oracle_components(w)
        if formula != oracle:
            out.append(
                OracleMismatch(
                    w=w,
                    formula=tuple(sorted(formula, key=lambda x: x.entries)),
                    oracle=tuple(sorted(oracle, key=lambda x: x.entries)),
                )
            )
    return tuple(out)


@dataclass(frozen=True)
class PatternMismatch:
    """Pair where the component criterion and the pattern shortcut disagree."""

    v: GrassIndex
    w: GrassIndex
    smooth_by_components: bool
    smooth_by_pattern: bool

    def to_dict(self) -> dict:
        return {
            "v": list(self.v.entries),
            "w": list(self.w.entries),
            "smooth_by_components": self.smooth_by_components,
            "smooth_by_pattern": self.smooth_by_pattern,
        }


@dataclass(frozen=True)
class CensusReport:
    """Aggregate verdicts over all semistable-admitting pairs of one context."""

    ctx: GrassCtx
    total_pairs: int
    smooth_count: int
    singular_count: int
    mismatches: tuple[PatternMismatch, ...]
    oracle_mismatches: tuple[OracleMismatch, ...]
    erratum_notes: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "k": self.ctx.k,
            "n": self.ctx.n,
            "total_pairs": self.total_pairs,
            "smooth_count": self.smooth_count,
            "singular_count": self.singular_count,
            "mismatches": [m.to_dict() for m in self.mismatches],
            "oracle_mismatches": [m.to_dict() for m in self.oracle_mismatches],
            # census/verify JSON stays byte-identical: perfbench/goldens.json pins its sha256
            "consistency_failures": [],
            "erratum_notes": list(self.erratum_notes),
        }


def admissible_reports(ctx: GrassCtx) -> Iterator[AnalysisReport]:
    """analyze(v, w, ctx) for every v <= v_min and w >= w_min, v-major.

    Both intervals are enumerated in lexicographic order, and the reports
    stream one at a time.  Raises NotCoprime on the first next().
    """
    mp = minimal_pair(ctx)
    ws = indices_above(mp.w_min)
    for v in indices_below(mp.v_min):
        for w in ws:
            yield analyze(v, w, ctx)


def census(ctx: GrassCtx) -> CensusReport:
    """Analyze every pair with v <= v_min and w >= w_min; raises NotCoprime."""
    total = smooth = 0
    mismatches = []
    for rep in admissible_reports(ctx):
        total += 1
        if rep.verdict == SMOOTH:
            smooth += 1
        if rep.mismatch:
            mismatches.append(
                PatternMismatch(
                    v=rep.pair.v,
                    w=rep.pair.w,
                    smooth_by_components=rep.smooth_by_components,
                    smooth_by_pattern=rep.smooth_by_pattern,
                )
            )
    oracle_mismatches = oracle_sweep(ctx)
    notes = list(ERRATUM_NOTES)
    if mismatches:
        notes.append(
            f"In {ctx} the pattern shortcut disagrees with the component "
            f"criterion at {len(mismatches)} pair(s).  The component criterion "
            "follows the geometric definition and is authoritative; the "
            "shortcut's lower-index clause is exact only where consecutive "
            "a-values step by exactly 2."
        )
    return CensusReport(
        ctx=ctx,
        total_pairs=total,
        smooth_count=smooth,
        singular_count=total - smooth,
        mismatches=tuple(mismatches),
        oracle_mismatches=oracle_mismatches,
        erratum_notes=tuple(notes),
    )


GOLDEN_VERDICTS: tuple[tuple[tuple[int, ...], tuple[int, ...], str], ...] = (
    ((1, 3, 5, 7), (3, 5, 7, 9), SMOOTH),
    ((1, 3, 4, 6), (3, 5, 7, 9), SMOOTH),
    ((1, 2, 3, 5), (3, 5, 7, 9), SINGULAR),
    ((1, 3, 4, 6), (5, 7, 8, 9), SINGULAR),
)


@dataclass(frozen=True)
class ExampleCheck:
    """One reference verdict in G(4,9) replayed against analyze."""

    v: tuple[int, ...]
    w: tuple[int, ...]
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_dict(self) -> dict:
        return {
            "k": 4,
            "n": 9,
            "v": list(self.v),
            "w": list(self.w),
            "expected": self.expected,
            "actual": self.actual,
            "ok": self.ok,
        }


def default_contexts(max_n: int = 12) -> list[GrassCtx]:
    """All coprime contexts (k, n) with 1 <= k < n <= max_n, sorted by (n, k)."""
    return [
        GrassCtx(k, n)
        for n in range(2, max_n + 1)
        for k in range(1, n)
        if gcd(k, n) == 1
    ]


@dataclass(frozen=True)
class VerifyReport:
    """Machine-readable pass/fail summary over a list of contexts."""

    censuses: tuple[CensusReport, ...]
    examples: tuple[ExampleCheck, ...]
    passed: bool

    @property
    def pattern_mismatch_total(self) -> int:
        return sum(len(c.mismatches) for c in self.censuses)

    @property
    def oracle_mismatch_total(self) -> int:
        return sum(len(c.oracle_mismatches) for c in self.censuses)

    def to_dict(self) -> dict:
        return {
            "contexts": [c.to_dict() for c in self.censuses],
            "examples": [e.to_dict() for e in self.examples],
            "pattern_mismatch_total": self.pattern_mismatch_total,
            "oracle_mismatch_total": self.oracle_mismatch_total,
            "passed": self.passed,
        }


def verify(ctxs: list[GrassCtx] | None = None) -> VerifyReport:
    """Run census on each context plus the G(4,9) reference verdicts.

    Deterministic: identical inputs produce identical reports.  passed is
    False as soon as any census records a mismatch of either kind or any
    reference verdict fails to reproduce.
    """
    if ctxs is None:
        ctxs = default_contexts()
    censuses = tuple(census(c) for c in ctxs)
    examples: tuple[ExampleCheck, ...] = ()
    if any(c.k == 4 and c.n == 9 for c in ctxs):
        g49 = GrassCtx(4, 9)
        examples = tuple(
            ExampleCheck(v=v, w=w, expected=exp, actual=analyze(v, w, g49).verdict)
            for v, w, exp in GOLDEN_VERDICTS
        )
    passed = all(
        not c.mismatches and not c.oracle_mismatches for c in censuses
    ) and all(e.ok for e in examples)
    return VerifyReport(censuses=censuses, examples=examples, passed=passed)

