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
from dataclasses import dataclass
from operator import le

from .core import (
    ContextMismatch,
    GrassCtx,
    GrassError,
    GrassIndex,
    RichardsonId,
    _PairMemo,
    _fmt_ctx,
    _fmt_int,
    _index,
    _require_type,
    _richardson,
    _set_v,
    _set_w,
    make_index,
)
from .singular import OPPOSITE_SIDE, SCHUBERT_SIDE, SingularComponent
from .singular import _opposite_records, _schubert_records

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


@dataclass(frozen=True, slots=True)
class MinimalPair:
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


def _smooth_by_pattern(rid: RichardsonId, mp: MinimalPair) -> bool:
    """Entry-pattern test on w = (b_1..b_k), v = (c_1..c_k) and a = (a_1..a_k).

    For every j in [2, k]: whenever b_j >= b_{j-1} + 2 require
    a_j >= b_{j-1} + 1, and whenever c_j >= c_{j-1} + 2 require
    a_{j-1} <= c_j + 1.  Meaningful only when rid admits semistable points.
    """
    b, c, a = rid.w.entries, rid.v.entries, mp.a
    for j in range(1, mp.ctx.k):  # 0-based j stands for 1-based j+1
        if b[j] >= b[j - 1] + 2 and not a[j] >= b[j - 1] + 1:
            return False
        if c[j] >= c[j - 1] + 2 and not a[j - 1] <= c[j] + 1:
            return False
    return True


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class AnalysisReport:
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

        A new tuple on each read, built from the side records memoized on v
        and w with the keep and flag tests of analyze's docstring; each flag
        equals has_semistable(component.pair, minimal_pair(ctx)).  As no
        field holds it, ==, hash, repr, copying, pickling and
        dataclasses.replace do not see it.
        """
        rid = self.pair
        vi, wi = rid.v, rid.w
        ve, we = vi.entries, wi.entries
        ctx = rid.ctx
        mp = minimal_pair(ctx)
        v_min, a = mp.v_min.entries, mp.a
        ss = has_semistable(rid, mp)
        schubert = [
            ComponentReport(_richardson(vi, _index(c, ctx)), SCHUBERT_SIDE, ss and x >= a[j])
            for c, j, x in _schubert_records(wi)
            if ve[j] <= x
        ]
        opposite = [
            ComponentReport(_richardson(_index(c, ctx), wi), OPPOSITE_SIDE, ss and v_min[J] >= y)
            for c, J, y in _opposite_records(vi)
            if we[J] >= y
        ]
        return tuple(schubert + opposite)

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


_set_pair = AnalysisReport.pair.__set__
_set_nonempty = AnalysisReport.nonempty.__set__
_set_has_semistable = AnalysisReport.has_semistable.__set__
_set_by_components = AnalysisReport.smooth_by_components.__set__
_set_by_pattern = AnalysisReport.smooth_by_pattern.__set__
_set_verdict = AnalysisReport.verdict.__set__
_set_dimension = AnalysisReport.dimension.__set__
_new = object.__new__


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
    proportion to k.  The pair is checked inline and built trusted; only a
    pair that fails goes through RichardsonId's own checks, which raise
    the same errors with the same messages.  Every value derived from the
    pair afterwards is trusted.
    The verdict comes from the side records memoized on v and w
    (singular._schubert_records and _opposite_records) with one integer
    comparison per record, and analyze builds no component: an
    EMPTY_QUOTIENT pair walks neither side, a semistable pair stops at
    its first flagged record.  AnalysisReport.components builds the list
    from the same records on each read, with the keep and flag tests
    below; it equals richardson_singular_components(pair), and each
    component's flag equals has_semistable(component.pair, minimal_pair(ctx)).
    dimension is length(w) - length(v), the difference of the entry sums.

    Each side record answers both questions with one integer comparison.
    Entries are 0-based, and u_i - i is the offset of entry i of u.  Every
    index (v, w, v_min and w_min = a among them) is strictly increasing, so
    its offsets are nondecreasing.

    Schubert side, record (w', j, x = w_{j-1}) of a valley (j, s): w' equals
    w outside rows s..j and runs w_s - 1, ..., w_{j-1} on them, so its
    offsets there all equal x - j.  As v <= w, v <= w' holds iff
    v_i - i <= x - j for i in s..j, i.e. (offsets nondecreasing) iff
    v_j <= x.  Likewise, given w >= w_min, w' >= w_min iff a_j <= x; and
    w' >= w_min implies w >= w_min, as w' <= w.  So the flag
    (v <= v_min and w' >= w_min) is ss and x >= a_j.

    Opposite side, record (v', J, y = v_{J+1}): v' equals v outside rows
    J..t and runs v_{J+1}, ..., v_t + 1 on them, with offsets all equal
    to y - J.  As v <= w, v' <= w holds iff y - J <= w_i - i for i in
    J..t, i.e. iff y <= w_J.  Likewise, given v <= v_min, v' <= v_min iff
    y <= v_min[J]; and v' <= v_min implies v <= v_min, as v <= v'.  So the
    flag (v' <= v_min and w >= w_min) is ss and v_min[J] >= y.

    ss is the pair's own semistability, so no component is flagged on an
    EMPTY_QUOTIENT pair.  On a semistable pair the keep test follows from
    the flag test, as v <= v_min = (1, a_0, ..., a_{k-2}) and w >= a:
    Schubert side, v_j <= v_min[j] = a_{j-1} <= a_j <= x (j >= 1);
    opposite side, y <= v_min[J] <= a_J <= w_J.  So the pair is SINGULAR
    iff x >= a_j for some Schubert record or v_min[J] >= y for some
    opposite record, whatever the keep tests say.
    """
    _require_coprime(ctx)
    vi = v if isinstance(v, GrassIndex) else make_index(v, ctx)
    wi = w if isinstance(w, GrassIndex) else make_index(w, ctx)
    ve, we = vi.entries, wi.entries
    vc, wc = vi.ctx, wi.ctx
    if not (
        (vc is ctx or vc == ctx) and (wc is ctx or wc == ctx) and all(map(le, ve, we))
    ):
        rid = RichardsonId(vi, wi)
        raise ContextMismatch(
            f"pair is from {_fmt_ctx(rid.ctx)}, minimal pair from {_fmt_ctx(ctx)}"
        )
    rid = _new(RichardsonId)
    _set_v(rid, vi)
    _set_w(rid, wi)
    mp = _minimal_pair(ctx)

    v_min, a = mp.v_min.entries, mp.a
    ss = all(map(le, ve, v_min)) and all(map(le, a, we))
    if not ss:
        by_components: bool | None = None
        by_pattern: bool | None = None
        verdict = EMPTY_QUOTIENT
    else:
        by_components = not (
            any(x >= a[j] for _, j, x in _schubert_records(wi))
            or any(v_min[J] >= y for _, J, y in _opposite_records(vi))
        )
        by_pattern = _smooth_by_pattern(rid, mp)
        verdict = SMOOTH if by_components else SINGULAR

    rep = _new(AnalysisReport)
    _set_pair(rep, rid)
    _set_nonempty(rep, True)
    _set_has_semistable(rep, ss)
    _set_by_components(rep, by_components)
    _set_by_pattern(rep, by_pattern)
    _set_verdict(rep, verdict)
    _set_dimension(rep, sum(we) - sum(ve))
    return rep
