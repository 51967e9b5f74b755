"""Semistability and quotient-smoothness criteria (coprime k, n only).

For coprime k < n there is a unique Bruhat-minimal pair (v_min, w_min)
whose Richardson variety admits semistable points: w_min = (a_1, ..., a_k)
with a_i the smallest integer satisfying a_i * k >= i * n, and
v_min = (1, a_1, ..., a_{k-1}).  X^v_w admits semistable points exactly
when v <= v_min and w >= w_min.

The torus quotient of X^v_w is smooth exactly when its semistable locus
avoids the singular locus, i.e. when no singular component admits
semistable points.  analyze is the one place that decides this: the
report field smooth_by_components is the verdict's source of truth, and
smooth_by_pattern records an entry-pattern shortcut evaluated directly on
(v, w) and the a-sequence.  The census cross-checks the two fields and
records any disagreement, never silently resolving it.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import le, lt

from .core import (
    ContextMismatch,
    GrassCtx,
    GrassError,
    GrassIndex,
    RichardsonId,
    _PairMemo,
    _Record,
    _fmt_ctx,
    _fmt_int,
    _index,
    _record,
    _require_type,
    _richardson,
    make_index,
)
from .singular import SingularComponent, richardson_singular_components

__all__ = [
    "EMPTY_QUOTIENT",
    "SINGULAR",
    "SMOOTH",
    "AnalysisReport",
    "ComponentReport",
    "MinimalPair",
    "NotCoprime",
    "analyze",
    "has_semistable",
    "minimal_pair",
]

EMPTY_QUOTIENT = "EMPTY_QUOTIENT"
SMOOTH = "SMOOTH"
SINGULAR = "SINGULAR"


class NotCoprime(GrassError):
    """Operation requires gcd(k, n) = 1."""


@_record
class MinimalPair(_Record):
    """The minimal semistable-admitting pair of a coprime context.

    a holds (a_1, ..., a_k); w_min is a and v_min is (1, a_1, ..., a_{k-1}).
    """

    ctx: GrassCtx
    w_min: GrassIndex
    v_min: GrassIndex
    a: tuple[int, ...]


def _require_coprime(ctx: GrassCtx) -> None:
    """Raise NotCoprime unless gcd(k, n) = 1, before any work that grows with k.

    A ctx that is not a GrassCtx raises GrassError naming its type.
    """
    _require_type("ctx", ctx, GrassCtx)
    if not ctx.coprime():
        raise NotCoprime(f"k={_fmt_int(ctx.k)} and n={_fmt_int(ctx.n)} are not coprime")


def minimal_pair(ctx: GrassCtx) -> MinimalPair:
    """Compute (w_min, v_min) for a coprime context; raises NotCoprime otherwise.

    A ctx that is not a GrassCtx raises GrassError naming its type.
    """
    _require_coprime(ctx)
    return _minimal_pair(ctx)


_set_minimal = _PairMemo._minimal.__set__


def _minimal_pair(ctx: GrassCtx) -> MinimalPair:
    """minimal_pair for a ctx that _require_coprime has passed, kept in ctx's memo.

    Both indices are built trusted: as 1 <= k < n, a_i = ceil(i*n/k) has
    a_1 >= 2, a_k = n and a_{i+1} >= a_i + 1 (n/k > 1), so a and
    (1, a_1, ..., a_{k-1}) are strictly increasing k-tuples in [1, n].
    """
    mp = getattr(ctx, "_minimal", None)
    if mp is None:
        k, n = ctx.k, ctx.n
        a = tuple((i * n + k - 1) // k for i in range(1, k + 1))
        w_min = _index(a, ctx)
        v_min = _index((1,) + a[:-1], ctx)
        if not v_min <= w_min:
            raise GrassError(f"internal: v_min={v_min} not below w_min={w_min}")
        mp = MinimalPair(ctx=ctx, w_min=w_min, v_min=v_min, a=a)
        _set_minimal(ctx, mp)
    return mp


def has_semistable(rid: RichardsonId, mp: MinimalPair) -> bool:
    """True iff X^v_w admits semistable points: v <= v_min and w >= w_min."""
    _require_type("rid", rid, RichardsonId)
    _require_type("mp", mp, MinimalPair)
    if rid.ctx != mp.ctx:
        raise ContextMismatch(
            f"pair is from {_fmt_ctx(rid.ctx)}, minimal pair from {_fmt_ctx(mp.ctx)}"
        )
    v_min, w_min = mp.v_min.entries, mp.w_min.entries
    return all(map(le, rid.v.entries, v_min)) and all(map(le, w_min, rid.w.entries))


def _upper_clause(b: tuple[int, ...], a: tuple[int, ...]) -> bool:
    """A(w) for w = (b_1..b_k): b_j >= b_{j-1} + 2 implies b_{j-1} <= a_j - 1.

    For every j in [2, k]; see analyze's docstring.
    """
    for j in range(1, len(b)):  # 0-based j stands for 1-based j+1
        x = b[j - 1]
        if b[j] > x + 1 and x >= a[j]:
            return False
    return True


def _lower_clauses(
    c: tuple[int, ...], v_min: tuple[int, ...], a: tuple[int, ...]
) -> tuple[bool, bool]:
    """(B(v), P(v)) for v = (c_1..c_k), from one pass over v.

    For every j in [2, k] with c_j >= c_{j-1} + 2, B requires
    c_j >= a_{j-2} + 1 (with a_0 = 1, so a_{j-2} is v_min's entry j-1)
    and P requires a_{j-1} <= c_j + 1; see analyze's docstring.

    B(v) is A(iota(v)), so it could be _upper_clause(_iota(c, n), a) with a
    P-only scan here.  It keeps its own scan: building iota(v) costs one
    tuple per semistable analyze, which moved analyze p99 from 15.6 to
    19.4 us (+25%) and the mean by +10% over the 30,000-pair
    analyze-random pool of perfbench (one process, 6 alternating runs,
    Python 3.11.7, shared 2-core VM).  tests/test_factorization.py pins
    B = A o iota for every coprime n <= 14.
    """
    exact = shortcut = True
    for j in range(1, len(c)):  # 0-based j stands for 1-based j+1
        y = c[j]
        if y > c[j - 1] + 1:
            if y <= v_min[j - 1]:
                exact = False
            if a[j - 1] > y + 1:
                shortcut = False
    return exact, shortcut


@_record
class ComponentReport(SingularComponent):
    """A singular-locus component (pair, source) with its semistability flag."""

    has_semistable: bool

    def to_dict(self) -> dict:
        return {
            "v": list(self.pair.v.entries),
            "w": list(self.pair.w.entries),
            "source": self.source,
            "has_semistable": self.has_semistable,
        }


@_record
class AnalysisReport(_Record):
    """Full verdict record for one pair (v, w).

    smooth_by_components and smooth_by_pattern are None when the quotient
    is empty, i.e. when the pair admits no semistable points.  The verdict
    follows smooth_by_components; a disagreement with smooth_by_pattern
    stays visible through the mismatch property.  components is not a
    field but a function of pair, built on each read.
    """

    pair: RichardsonId
    nonempty: bool
    has_semistable: bool
    smooth_by_components: bool | None
    smooth_by_pattern: bool | None
    verdict: str
    dimension: int

    @property
    def components(self) -> tuple[ComponentReport, ...]:
        """richardson_singular_components(pair), each with its semistability flag.

        The flag is has_semistable(component.pair, minimal_pair(ctx)).  A
        new tuple on each read.  As no field holds it, ==, hash, repr,
        copying, pickling and __replace__ do not see it.
        """
        rid = self.pair
        mp = minimal_pair(rid.ctx)
        return tuple(
            [
                ComponentReport(c.pair, c.source, has_semistable(c.pair, mp))
                for c in richardson_singular_components(rid)
            ]
        )

    @property
    def mismatch(self) -> bool:
        return (
            self.smooth_by_components is not None
            and self.smooth_by_pattern is not None
            and self.smooth_by_components != self.smooth_by_pattern
        )

    def to_dict(self) -> dict:
        return {
            "k": self.pair.ctx.k,
            "n": self.pair.ctx.n,
            "v": list(self.pair.v.entries),
            "w": list(self.pair.w.entries),
            "nonempty": self.nonempty,
            "has_semistable": self.has_semistable,
            "dimension": self.dimension,
            "components": [c.to_dict() for c in self.components],
            "smooth_by_components": self.smooth_by_components,
            "smooth_by_pattern": self.smooth_by_pattern,
            "verdict": self.verdict,
        }


def _checked_pair(
    v: Sequence[int] | GrassIndex, w: Sequence[int] | GrassIndex, ctx: GrassCtx
) -> tuple[GrassIndex, GrassIndex, MinimalPair]:
    """analyze's checks one at a time: (vi, wi, minimal_pair(ctx)), or the first error.

    In analyze's order: NotCoprime, make_index on a raw v and then a raw
    w, then the contexts and v <= w, where RichardsonId's own checks raise
    first.  _minimal_pair runs only once every check has passed.
    """
    _require_coprime(ctx)
    vi = v if isinstance(v, GrassIndex) else make_index(v, ctx)
    wi = w if isinstance(w, GrassIndex) else make_index(w, ctx)
    vc, wc = vi.ctx, wi.ctx
    if not (
        (vc is ctx or vc == ctx)
        and (wc is ctx or wc == ctx)
        and all(map(le, vi.entries, wi.entries))
    ):
        rid = RichardsonId(vi, wi)
        raise ContextMismatch(
            f"pair is from {_fmt_ctx(rid.ctx)}, minimal pair from {_fmt_ctx(ctx)}"
        )
    return vi, wi, _minimal_pair(ctx)


def analyze(
    v: Sequence[int] | GrassIndex,
    w: Sequence[int] | GrassIndex,
    ctx: GrassCtx,
) -> AnalysisReport:
    """Analyze the pair (v, w): semistability, singular components, verdict.

    Raises NotCoprime for gcd(k, n) > 1, the make_index errors for invalid
    tuples, EmptyRichardson when v is not below w, and ContextMismatch when
    a prebuilt GrassIndex belongs to another context.  Those are the only
    checks, made in that order and all before minimal_pair(ctx) builds its
    k-entry tuples, so a refusal takes time in proportion to the tuples
    given, not to k; valid tuples of a huge context still cost time in
    proportion to k.  Once ctx's minimal pair is memoized (see
    core._PairMemo), a pair of raw tuples is checked by one fused test and
    built trusted.  That test decides semistability, v <= v_min and
    w_min <= w, on the tuples, and tests v <= w only when it fails: a
    semistable pair has v <= v_min < w_min <= w (v_min's entry i is
    a_{i-1} < a_i), so it needs no third comparison.  Everything else
    (the first call on a context, lists and other sequences, prebuilt
    indices, and any pair that fails the fused test) takes _checked_pair,
    which makes the checks above one by one and raises the same errors
    with the same messages; semistability is then decided on the entries
    it built.  Every record is built by the generated trusted
    constructors, core._index, core._richardson and
    AnalysisReport._trusted, as every value derived from the pair is.
    dimension is length(w) - length(v), the difference of the entry sums.

    On a semistable pair the verdict is two clauses on consecutive
    entries, and analyze builds no component and calls no walk.  Write
    w = (b_1..b_k), v = (c_1..c_k), a = w_min = (a_1..a_k) and a_0 = 1,
    so v_min = (a_0, ..., a_{k-1}); j runs over [2, k].
      A(w): b_j >= b_{j-1} + 2 implies b_{j-1} <= a_j - 1.
      B(v): c_j >= c_{j-1} + 2 implies c_j >= a_{j-2} + 1.
      P(v): c_j >= c_{j-1} + 2 implies a_{j-1} <= c_j + 1.
    smooth_by_components is A and B, and smooth_by_pattern is A and P:
    A is the pattern shortcut's own upper clause, and P its lower one.
    _upper_clause scans w for A; _lower_clauses scans v once for B and
    P, and only when A holds.

    Lemma: on a semistable pair (v <= v_min, w >= a), a component of the
    singular locus admits semistable points iff its side's clause fails
    at its valley.  u_i - i is the offset of entry i of an index u; every
    index is strictly increasing, so its offsets are nondecreasing.  Also
    i < a_i <= n - k + i, as n > k and a is an index.

    Schubert side (singular._schubert_walk): a valley at row j has
    b_j >= b_{j-1} + 2 and b_{j-1} > j - 1, and its component w' equals w
    outside rows s..j and runs b_s - 1, ..., b_{j-1} on them, with
    offsets all b_{j-1} - j.  As w >= a, w' >= a iff b_{j-1} >= a_j, and
    then v <= v_min <= a <= w'.  So the component is kept (v <= w') and
    flagged (semistable) iff b_{j-1} >= a_j.  The walk's condition
    b_{j-1} > j - 1 always holds,
    as b_{j-1} >= a_{j-1} > j - 1.  So no Schubert component is flagged
    iff A(w).

    Opposite side, by duality (singular.opposite_singular_components):
    iota(u)_i = n + 1 - u_{k+1-i} (diagrams._iota) is an involution that
    reverses the Bruhat order, and n + 1 - a_j = a_{k-j} for j in [1, k]
    (both are 1 at j = k; for j < k, n + 1 - a_j = 1 + floor((k-j)n/k)
    = ceil((k-j)n/k), as k does not divide (k-j)n).  So iota(a) = v_min:
    iota swaps w_min and v_min and maps {v <= v_min} onto {w >= a}.  The
    opposite components of v are the iota-images of the Schubert
    components of iota(v), and one of them, iota(w'), is flagged
    (iota(w') <= v_min, and then iota(w') <= v_min <= a <= w) iff
    w' >= a.  So by the Schubert side, applied to iota(v) >= a, no
    opposite component is flagged iff A(iota(v)).  Write
    iota(v) = (b_1..b_k), b_j = n + 1 - c_{k+1-j}, and i = k + 2 - j:
    b_j >= b_{j-1} + 2 iff c_i >= c_{i-1} + 2, and b_{j-1} <= a_j - 1 iff
    c_i >= n + 2 - a_j = a_{i-2} + 1.  As j runs over [2, k] so does i,
    and A(iota(v)) is B(v).

    A component's flag implies the pair's own semistability, as
    v <= v' and w' <= w, so an EMPTY_QUOTIENT pair has no flagged
    component.  AnalysisReport.components lists the components with
    richardson_singular_components and flags each with has_semistable;
    the tests check the verdict against those flags and each clause
    against the components of its side.
    """
    mp = getattr(ctx, "_minimal", None) if type(ctx) is GrassCtx else None
    # A filled memo proves gcd(k, n) = 1 (core._PairMemo).  The fused test
    # is not GrassIndex.__post_init__'s check on each index: with strict
    # increase on each side, 1 <= v_1 bounds v below and w_k <= n bounds w
    # above, and v <= w gives the other two bounds, so no inner range
    # bound needs a test.  Semistability implies v <= w (see the docstring),
    # so only a pair that is not semistable is tested for it.
    if (
        mp is not None
        and type(v) is tuple
        and type(w) is tuple
        and len(v) == len(w) == ctx.k
        and set(map(type, v + w)) <= {int}
        and 1 <= v[0]
        and w[-1] <= ctx.n
        and all(map(lt, v, v[1:]))
        and all(map(lt, w, w[1:]))
        and (
            (ss := all(map(le, v, mp.v_min.entries)) and all(map(le, mp.a, w)))
            or all(map(le, v, w))
        )
    ):
        vi, wi = _index(v, ctx), _index(w, ctx)
    else:
        vi, wi, mp = _checked_pair(v, w, ctx)
        v, w = vi.entries, wi.entries
        ss = all(map(le, v, mp.v_min.entries)) and all(map(le, mp.a, w))

    v_min, a = mp.v_min.entries, mp.a
    if not ss:
        by_components: bool | None = None
        by_pattern: bool | None = None
        verdict = EMPTY_QUOTIENT
    elif _upper_clause(w, a):
        by_components, by_pattern = _lower_clauses(v, v_min, a)
        verdict = SMOOTH if by_components else SINGULAR
    else:
        by_components = by_pattern = False
        verdict = SINGULAR
    return AnalysisReport._trusted(
        _richardson(vi, wi), True, ss, by_components, by_pattern, verdict, sum(w) - sum(v)
    )
