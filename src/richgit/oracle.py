"""Brute-force validators and exhaustive reports.

_hook_oracle_entries recomputes the Schubert singular loci from the cells
of the diagram, held as one int bitmask per row: valleys and hooks are
bit operations on neighbouring rows, and entries are recounted from the
cells left.  It shares none of the hook-removal code, so the two routes
check each other.  _walk_check runs both on the entry tuple of one index
(singular._schubert_walk and _hook_oracle_entries), and builds indices
only to report a disagreement.  oracle_sweep runs it over all of I(k,n),
for any context.

census covers every pair (v, w) with v <= v_min and w >= w_min of one
coprime context from analyze on the pairs through (v_min, w_min),
cross-checking the component criterion against the pattern shortcut.
The pairs where they disagree are a product, kept factored in the
report: the mismatch v's with their flags, and the w's they pair with.
On the s = C(n,k)/n indices w >= w_min it also checks the walk against
the cell oracle, and the clause verdicts it counts, A(w) and B(iota(w)),
against the oracle's components (_side_check); the full sweep of I(k,n)
is a test, not part of census.
verify aggregates censuses over a context list (default: all coprime
(k, n) with n <= 12) into one deterministic, machine-readable report.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from operator import le

from .core import (
    GrassCtx,
    GrassError,
    GrassIndex,
    _Record,
    _fmt_ctx,
    _record,
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
from .diagrams import _iota
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


@_record
class OracleMismatch(_Record):
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


def _walk_check(
    e: tuple[int, ...], ctx: GrassCtx
) -> tuple[set[tuple[int, ...]], OracleMismatch | None]:
    """(oracle components of X(w), their mismatch with the walk's or None), w with entries e.

    Both sides run on entry tuples and are compared as sets; validated
    indices, sorted by entries, are built only for a w where they differ.
    """
    formula = set(_schubert_walk(e))
    oracle = _hook_oracle_entries(e)
    if formula == oracle:
        return oracle, None
    return oracle, OracleMismatch(
        w=GrassIndex(e, ctx),
        formula=tuple([GrassIndex(c, ctx) for c in sorted(formula)]),
        oracle=tuple([GrassIndex(c, ctx) for c in sorted(oracle)]),
    )


def oracle_sweep(ctx: GrassCtx) -> tuple[OracleMismatch, ...]:
    """Compare formula and oracle components for every w in I(k,n), in lexicographic order.

    Any context, coprime or not; census checks only the indices its
    verdicts read (_side_check).
    """
    out = []
    for e in combinations(range(1, ctx.n + 1), ctx.k):
        mismatch = _walk_check(e, ctx)[1]
        if mismatch is not None:
            out.append(mismatch)
    return tuple(out)


@_record
class PatternMismatch(_Record):
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


@_record
class ConsistencyFailure(_Record):
    """Side index where a clause verdict census counts and the cell oracle disagree.

    clause "A" names w >= w_min and reads A(w) from analyze(v_min, w);
    clause "B" names v <= v_min and reads B(v) from analyze(v, w_min).
    holds is that verdict.  The oracle says the opposite: the clause
    holds iff no oracle component of X(w) is >= w_min, for w = index
    under A and w = iota(index) under B.
    """

    clause: str
    index: GrassIndex
    holds: bool

    def to_dict(self) -> dict:
        return {"clause": self.clause, "index": list(self.index.entries), "holds": self.holds}


@_record
class CensusReport(_Record):
    """Aggregate verdicts over all semistable-admitting pairs of one context.

    The pattern mismatches are a product, kept factored: each row
    (v, smooth_by_components, smooth_by_pattern) of mismatch_rows is
    paired with every w of smooth_ws, v-major, so there are
    len(mismatch_rows) * len(smooth_ws) of them.
    """

    ctx: GrassCtx
    total_pairs: int
    smooth_count: int
    singular_count: int
    mismatch_rows: tuple[tuple[GrassIndex, bool, bool], ...]
    smooth_ws: tuple[GrassIndex, ...]
    oracle_mismatches: tuple[OracleMismatch, ...]
    consistency_failures: tuple[ConsistencyFailure, ...]
    erratum_notes: tuple[str, ...]

    @property
    def mismatches(self) -> tuple[PatternMismatch, ...]:
        """The product as PatternMismatch records, v-major, built on each read."""
        ws = self.smooth_ws
        return tuple(PatternMismatch(v, w, c, p) for v, c, p in self.mismatch_rows for w in ws)

    def _tree(self) -> dict:
        """to_dict(), with "mismatches" left as self, which cli.to_json writes from the rows."""
        return {
            "k": self.ctx.k,
            "n": self.ctx.n,
            "total_pairs": self.total_pairs,
            "smooth_count": self.smooth_count,
            "singular_count": self.singular_count,
            "mismatches": self,
            "oracle_mismatches": [m.to_dict() for m in self.oracle_mismatches],
            "consistency_failures": [f.to_dict() for f in self.consistency_failures],
            "erratum_notes": list(self.erratum_notes),
        }

    def to_dict(self) -> dict:
        return {**self._tree(), "mismatches": [m.to_dict() for m in self.mismatches]}


# Most admissible pairs one census covers.  G(5,14) has 20,449 and
# G(7,16) 511,225; G(9,20) has 70,526,404, gigabytes of CSV rows.
MAX_PAIRS = 2**20


# Most side cells a census admits: s * k * n = C(n,k) * k for the
# s = C(n,k)/n side indices, k entries each, where the walk and the
# row-bitmask cell oracle cost up to n per entry.  G(7,16) has 80,080
# and G(2,2049), at the pair cap, 4,196,352; G(1,2**24) sits at the
# bound and G(4095,4096) just under it, and each runs in under 0.05 s
# in any format.  Past it one pair's work grows with k without limit:
# the CSV of G(3000000,3000001) took 5.4 s and 518 MB (fresh process,
# Python 3.11.7, shared 2-core Xeon VM).
MAX_SIDE_CELLS = 2**24


def _check_census(ctx: GrassCtx) -> int:
    """Every check census makes, in every format, before any work; returns C(n,k).

    Raises NotCoprime, then GrassError past MAX_PAIRS pairs, then past
    MAX_SIDE_CELLS side cells.  For coprime k and n the indices v <= v_min
    are the lattice paths in the k x (n-k) box that stay below its
    diagonal, and Bizley (1954) counts them as the rational Catalan number
    s = C(n,k)/n; the indices w >= w_min are as many, so there are s * s
    pairs.  C(n,j) grows with j = 1..min(k, n-k), so the loop stops once
    it passes MAX_PAIRS * n, where s alone passes MAX_PAIRS.  A count of
    side cells from 2**48 on is not spelled out.
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
    cells = indices * k
    if cells > MAX_SIDE_CELLS:
        count = f"{cells:,}" if cells < 2**48 else f"more than {MAX_SIDE_CELLS:,}"
        raise GrassError(
            f"{_fmt_ctx(ctx)} has {count} side cells; a census checks at most {MAX_SIDE_CELLS:,}"
        )
    return indices


def _edge_reports(ctx: GrassCtx) -> tuple[list[AnalysisReport], list[AnalysisReport]]:
    """[analyze(v, w_min) for v <= v_min], [analyze(v_min, w) for w >= w_min].

    Each side in lexicographic order; callers run _check_census first.
    """
    mp = _minimal_pair(ctx)
    return (
        [analyze(v, mp.w_min, ctx) for v in indices_below(mp.v_min)],
        [analyze(mp.v_min, w, ctx) for w in indices_above(mp.w_min)],
    )


def _side_check(
    ctx: GrassCtx, lower: list[AnalysisReport], upper: list[AnalysisReport]
) -> tuple[tuple[OracleMismatch, ...], tuple[ConsistencyFailure, ...]]:
    """Walk mismatches and clause failures on the side indices of _edge_reports.

    For each w >= w_min, in upper's order, _walk_check compares the walk
    with the cell oracle, and A(w) (analyze(v_min, w) is SMOOTH) must hold
    iff no oracle component is >= w_min, by analyze's lemma.  For each
    v <= v_min, in lower's order, B(v) (analyze(v, w_min) by components)
    must hold iff the same is true of w = iota(v): iota (diagrams._iota)
    reverses the Bruhat order and swaps v_min and w_min, and the opposite
    components of X^v are the iota-images of the Schubert components of
    X(iota(v)).  So the oracle runs once on each of the s indices w.
    """
    a = _minimal_pair(ctx).a
    walk, failures = [], []
    clean = {}
    for r in upper:
        w = r.pair.w
        oracle, mismatch = _walk_check(w.entries, ctx)
        if mismatch is not None:
            walk.append(mismatch)
        holds = r.verdict == SMOOTH
        clean[w.entries] = not any(all(map(le, a, c)) for c in oracle)
        if holds != clean[w.entries]:
            failures.append(ConsistencyFailure("A", w, holds))
    for r in lower:
        holds = r.smooth_by_components
        if holds != clean[_iota(r.pair.v.entries, ctx.n)]:
            failures.append(ConsistencyFailure("B", r.pair.v, holds))
    return tuple(walk), tuple(failures)


def census(ctx: GrassCtx) -> CensusReport:
    """Verdicts of every pair with v <= v_min and w >= w_min, v-major.

    Raises what _check_census raises before any work: NotCoprime, or
    GrassError past MAX_PAIRS pairs or MAX_SIDE_CELLS side cells.
    analyze runs on the 2s edge pairs of _edge_reports only (s = C(n,k)/n).
    In analyze's terms (v, w) is smooth by components iff A(w) and B(v),
    by pattern iff A(w) and P(v), and A(w_min), B(v_min), P(v_min) hold:
      analyze(v, w_min) has B(v) by components and P(v) by pattern;
      analyze(v_min, w) is SMOOTH iff A(w);
      so (v, w) is SMOOTH iff both are, and a mismatch, with the flags
      of analyze(v, w_min), iff that is one and A(w) holds.
    So the mismatches are a product, and the report keeps it factored:
    the rows (v, B(v), P(v)) where B(v) != P(v), and the ws where A(w),
    w_min among them, so each row stands for at least one mismatch.
    _side_check then checks those A and B verdicts, and the walk they
    rest on, against the cell oracle at every side index.
    """
    _check_census(ctx)
    return _census(ctx)


def _census(ctx: GrassCtx) -> CensusReport:
    """census for a ctx that _check_census has passed."""
    lower, upper = _edge_reports(ctx)
    ws = tuple([r.pair.w for r in upper if r.verdict == SMOOTH])
    total = len(lower) * len(upper)
    smooth = len(ws) * sum(r.verdict == SMOOTH for r in lower)
    rows = tuple(
        [(r.pair.v, r.smooth_by_components, r.smooth_by_pattern) for r in lower if r.mismatch]
    )
    oracle_mismatches, failures = _side_check(ctx, lower, upper)
    notes = list(ERRATUM_NOTES)
    if rows:
        notes.append(
            f"In {ctx} the pattern shortcut disagrees with the component "
            f"criterion at {len(rows) * len(ws)} pair(s).  The component criterion "
            "follows the geometric definition and is authoritative; the "
            "shortcut's lower-index clause is exact only where consecutive "
            "a-values step by exactly 2."
        )
    return CensusReport(
        ctx=ctx,
        total_pairs=total,
        smooth_count=smooth,
        singular_count=total - smooth,
        mismatch_rows=rows,
        smooth_ws=ws,
        oracle_mismatches=oracle_mismatches,
        consistency_failures=failures,
        erratum_notes=tuple(notes),
    )


GOLDEN_VERDICTS: tuple[tuple[tuple[int, ...], tuple[int, ...], str], ...] = (
    ((1, 3, 5, 7), (3, 5, 7, 9), SMOOTH),
    ((1, 3, 4, 6), (3, 5, 7, 9), SMOOTH),
    ((1, 2, 3, 5), (3, 5, 7, 9), SINGULAR),
    ((1, 3, 4, 6), (5, 7, 8, 9), SINGULAR),
)


@_record
class ExampleCheck(_Record):
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


@_record
class VerifyReport(_Record):
    """Machine-readable pass/fail summary over a list of contexts."""

    censuses: tuple[CensusReport, ...]
    examples: tuple[ExampleCheck, ...]
    passed: bool

    @property
    def pattern_mismatch_total(self) -> int:
        return sum(len(c.mismatch_rows) * len(c.smooth_ws) for c in self.censuses)

    @property
    def oracle_mismatch_total(self) -> int:
        return sum(len(c.oracle_mismatches) for c in self.censuses)

    def _tree(self) -> dict:
        """to_dict(), with each context its CensusReport._tree() (cli.to_json)."""
        return {
            "contexts": [c._tree() for c in self.censuses],
            "examples": [e.to_dict() for e in self.examples],
            "pattern_mismatch_total": self.pattern_mismatch_total,
            "oracle_mismatch_total": self.oracle_mismatch_total,
            "passed": self.passed,
        }

    def to_dict(self) -> dict:
        return {**self._tree(), "contexts": [c.to_dict() for c in self.censuses]}


def verify(ctxs: list[GrassCtx] | None = None) -> VerifyReport:
    """Run census on each context plus the G(4,9) reference verdicts.

    Deterministic: identical inputs produce identical reports.  passed is
    False as soon as any census records a mismatch of either kind or a
    consistency failure, or any reference verdict fails to reproduce.
    ctxs may be any iterable, and it is read once; one that is not
    iterable raises GrassError naming it.
    Every context passes census's checks before the first census runs, so
    a refused context costs no work on the others.
    """
    try:
        ctxs = default_contexts() if ctxs is None else list(ctxs)
    except TypeError:
        raise GrassError(f"ctxs must be an iterable, not {type(ctxs).__name__}") from None
    for c in ctxs:
        _check_census(c)
    censuses = tuple(_census(c) for c in ctxs)
    examples: tuple[ExampleCheck, ...] = ()
    if any(c.k == 4 and c.n == 9 for c in ctxs):
        g49 = GrassCtx(4, 9)
        examples = tuple(
            ExampleCheck(v=v, w=w, expected=exp, actual=analyze(v, w, g49).verdict)
            for v, w, exp in GOLDEN_VERDICTS
        )
    passed = all(
        not (c.mismatch_rows or c.oracle_mismatches or c.consistency_failures) for c in censuses
    ) and all(e.ok for e in examples)
    return VerifyReport(censuses=censuses, examples=examples, passed=passed)

