"""Brute-force validators and exhaustive reports.

_hook_oracle_entries recomputes the Schubert singular loci from the cells
of the diagram, held as one int bitmask per row: valleys and hooks are
bit operations on neighbouring rows, and entries are recounted from the
cells left.  It shares none of the hook-removal code, so the two routes
check each other.  oracle_sweep runs both on entry tuples
(singular._schubert_walk and _hook_oracle_entries) over all of
I(k,n), and builds indices only to report a disagreement.

admissible_reports analyzes every pair (v, w) with v <= v_min and
w >= w_min of one coprime context.  census aggregates it, cross-checking
the component criterion against the pattern shortcut and the
hook-removal formula against the cell-set oracle.
verify aggregates censuses over a context list (default: all coprime
(k, n) with n <= 12) into one deterministic, machine-readable report.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .core import (
    GrassCtx,
    GrassError,
    GrassIndex,
    _fmt_ctx,
    indices_above,
    indices_below,
)
from .criteria import (
    SINGULAR,
    SMOOTH,
    AnalysisReport,
    _minimal_pair,
    _require_coprime,
    analyze,
)
from .singular import _schubert_walk

__all__ = [
    "CensusReport",
    "ExampleCheck",
    "OracleMismatch",
    "PatternMismatch",
    "VerifyReport",
    "census",
    "default_contexts",
    "oracle_sweep",
    "verify",
]

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


def _hook_oracle_entries(e: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Entries of the singular-locus components of X(w), w with entries e.

    Each row of the diagram is one int bitmask, bit c - 1 standing for the
    cell in column c.  A valley is a cell with cells to its south and east
    but none to its southeast, so the valleys of row j over the row below
    are the bits of row & below & (row >> 1) & ~(below >> 1).  The hook
    through a valley at (row j, column c) is the column of cells below it
    plus the tail of row j from column c rightwards; removing it clears
    bit c - 1 in every lower row and keeps only the columns left of c in
    row j, and entry i of the component is the cell count of row i plus i.
    """
    rows = [(1 << (x - i)) - 1 for i, x in enumerate(e, start=1)]
    out = set()
    for j in range(1, len(rows)):
        row, below = rows[j], rows[j - 1]
        valleys = row & below & (row >> 1) & ~(below >> 1)
        while valleys:
            bit = valleys & -valleys
            valleys ^= bit
            rest = [r & ~bit for r in rows[:j]] + [row & (bit - 1)] + rows[j + 1 :]
            out.add(tuple(r.bit_count() + i for i, r in enumerate(rest, start=1)))
    return out


@dataclass(frozen=True, slots=True)
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
    """Compare formula and oracle components for every w in I(k,n).

    Both sides run on entry tuples and are compared as sets; validated
    indices, sorted by entries, are built only for a w where they differ.
    """
    out = []
    for e in combinations(range(1, ctx.n + 1), ctx.k):
        formula = set(_schubert_walk(e))
        oracle = _hook_oracle_entries(e)
        if formula != oracle:
            out.append(
                OracleMismatch(
                    w=GrassIndex(e, ctx),
                    formula=tuple([GrassIndex(c, ctx) for c in sorted(formula)]),
                    oracle=tuple([GrassIndex(c, ctx) for c in sorted(oracle)]),
                )
            )
    return tuple(out)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


# Most admissible pairs one census analyzes.  G(5,14) has 20,449 and
# G(7,16) 511,225; G(9,20) has 70,526,404, tens of minutes of analyze.
MAX_PAIRS = 2**20


# Most cells one census's oracle_sweep visits: C(n,k) indices, each a
# k x (n-k) grid of cells.  G(7,16) has 720,720.  The largest admitted
# k = 2 context, G(2,257), has 16,776,960, and its sweep took 0.35-0.40 s
# in a fresh process (Python 3.11.7, shared 2-core Xeon VM); G(2,259) is
# refused.
MAX_SWEEP_CELLS = 2**24


def _check_pairs(ctx: GrassCtx) -> int:
    """Raise NotCoprime, or GrassError when ctx has more than MAX_PAIRS pairs.

    For coprime k and n the indices v <= v_min are the lattice paths in
    the k x (n-k) box that stay below its diagonal, and Bizley (1954)
    counts them as the rational Catalan number s = C(n,k)/n; the indices
    w >= w_min are as many, so there are s * s pairs.  C(n,j) grows with
    j = 1..min(k, n-k), so the loop stops once it passes MAX_PAIRS * n,
    where s alone passes MAX_PAIRS.  Otherwise returns C(n,k).
    """
    _require_coprime(ctx)
    k, n = ctx.k, ctx.n
    indices = 1
    for j in range(1, min(k, n - k) + 1):
        indices = indices * (n + 1 - j) // j
        if indices > MAX_PAIRS * n:
            break
    pairs = (indices // n) ** 2
    if pairs > MAX_PAIRS:
        count = f"{pairs:,}" if indices <= MAX_PAIRS * n else f"more than {MAX_PAIRS:,}"
        raise GrassError(
            f"{_fmt_ctx(ctx)} has {count} admissible pairs; "
            f"a census analyzes at most {MAX_PAIRS:,}"
        )
    return indices


def _check_census(ctx: GrassCtx) -> None:
    """Every check census makes before any work: _check_pairs, then the sweep size.

    Past MAX_SWEEP_CELLS indices (k = 1 admits any n) the cells are not spelled out.
    """
    indices = _check_pairs(ctx)
    k, n = ctx.k, ctx.n
    cells = indices * k * (n - k)
    if cells > MAX_SWEEP_CELLS:
        count = f"more than {MAX_SWEEP_CELLS:,} oracle sweep cells"
        if indices <= MAX_SWEEP_CELLS:
            count = f"{cells:,} oracle sweep cells ({indices:,} indices of {k * (n - k)} cells)"
        raise GrassError(
            f"{_fmt_ctx(ctx)} has {count}; a census sweeps at most {MAX_SWEEP_CELLS:,}"
        )


def admissible_reports(ctx: GrassCtx) -> Iterator[AnalysisReport]:
    """analyze(v, w, ctx) for every v <= v_min and w >= w_min, v-major.

    Both intervals are enumerated in lexicographic order, and the reports
    stream one at a time.  On the first next(), raises what _check_pairs
    raises.
    """
    _check_pairs(ctx)
    mp = _minimal_pair(ctx)
    ws = indices_above(mp.w_min)
    for v in indices_below(mp.v_min):
        for w in ws:
            yield analyze(v, w, ctx)


def census(ctx: GrassCtx) -> CensusReport:
    """Analyze every pair with v <= v_min and w >= w_min.

    Raises what _check_census raises before any work: NotCoprime, or
    GrassError when the pairs or the oracle sweep exceed their bounds.
    """
    _check_census(ctx)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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
    reference verdict fails to reproduce.  ctxs may be any iterable, and
    it is read once; one that is not iterable raises GrassError naming it.
    Every context passes census's checks before the first census runs, so
    a refused context costs no work on the others.
    """
    try:
        ctxs = default_contexts() if ctxs is None else list(ctxs)
    except TypeError:
        raise GrassError(f"ctxs must be an iterable, not {type(ctxs).__name__}") from None
    for c in ctxs:
        _check_census(c)
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

