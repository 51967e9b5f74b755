from math import gcd

import pytest

from richgit import (
    EMPTY_QUOTIENT,
    SINGULAR,
    SMOOTH,
    GrassCtx,
    NotCoprime,
    RichardsonId,
    analyze,
    enumerate_indices,
    has_semistable,
    make_index,
    minimal_pair,
)

G49 = GrassCtx(4, 9)


def idx(values, ctx=G49):
    return make_index(values, ctx)


def rid(v, w, ctx=G49):
    return RichardsonId(make_index(v, ctx), make_index(w, ctx))


def coprime_ctxs(max_n, min_k=1):
    return [
        GrassCtx(k, n)
        for n in range(2, max_n + 1)
        for k in range(min_k, n)
        if gcd(k, n) == 1
    ]


class TestMinimalPair:
    def test_reference(self):
        mp = minimal_pair(G49)
        assert mp.w_min.entries == (3, 5, 7, 9)
        assert mp.v_min.entries == (1, 3, 5, 7)
        assert mp.a == (3, 5, 7, 9)

    def test_projective_space(self):
        for n in (2, 5, 9):
            mp = minimal_pair(GrassCtx(1, n))
            assert mp.w_min.entries == (n,)
            assert mp.v_min.entries == (1,)

    def test_small_case(self):
        mp = minimal_pair(GrassCtx(2, 5))
        assert mp.w_min.entries == (3, 5)
        assert mp.v_min.entries == (1, 3)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime, match="k=4 and n=6 are not coprime"):
            minimal_pair(GrassCtx(4, 6))

    def test_a_sequence_properties(self):
        for ctx in coprime_ctxs(12):
            mp = minimal_pair(ctx)
            k, n = ctx.k, ctx.n
            for i, a in enumerate(mp.a, start=1):
                assert a * k >= i * n > (a - 1) * k  # smallest such integer
            assert mp.a[-1] == n
            assert mp.v_min <= mp.w_min  # hypothesis subsumption

    def test_gap_of_two_holds_iff_wide_rectangle(self):
        # a_i >= a_{i-1} + 2 (a_0 = 1) holds exactly on the n > 2k side
        for ctx in coprime_ctxs(12, min_k=2):
            mp = minimal_pair(ctx)
            a = (1,) + mp.a
            gaps_ok = all(a[i] >= a[i - 1] + 2 for i in range(1, len(a)))
            assert gaps_ok == (ctx.n > 2 * ctx.k), ctx


class TestHasSemistable:
    def test_reference_values(self):
        mp = minimal_pair(G49)
        assert has_semistable(rid((1, 2, 4, 7), (3, 6, 7, 9)), mp)
        assert not has_semistable(rid((1, 2, 6, 7), (3, 6, 7, 9)), mp)
        assert has_semistable(rid((1, 3, 5, 7), (3, 5, 7, 9)), mp)

    def test_equivalent_to_minimal_containment(self):
        # independent route: X^{v_min}_{w_min} sits inside X^v_w iff every
        # T-fixed point u of the former (v_min <= u <= w_min) satisfies
        # v <= u <= w; the fixed points come from filtering I(k,n)
        for ctx in coprime_ctxs(9):
            mp = minimal_pair(ctx)
            elems = enumerate_indices(ctx)
            fixed = [u for u in elems if mp.v_min <= u <= mp.w_min]
            for v in elems:
                for w in elems:
                    if not v <= w:
                        continue
                    contained = all(v <= u <= w for u in fixed)
                    assert has_semistable(RichardsonId(v, w), mp) == contained


class TestSmoothByComponents:
    def test_reference_values(self):
        assert analyze((1, 3, 4, 6), (3, 5, 7, 9), G49).smooth_by_components
        assert not analyze((1, 2, 3, 5), (3, 5, 7, 9), G49).smooth_by_components
        assert not analyze((1, 3, 4, 6), (5, 7, 8, 9), G49).smooth_by_components


class TestSmoothByPattern:
    def test_reference_values(self):
        assert analyze((1, 3, 5, 7), (3, 5, 7, 9), G49).smooth_by_pattern
        assert not analyze((1, 2, 3, 5), (3, 5, 7, 9), G49).smooth_by_pattern
        assert analyze((1, 2, 4, 7), (3, 5, 7, 9), G49).smooth_by_pattern

    def test_cross_check_against_components(self):
        rep = analyze((1, 2, 4, 7), (3, 5, 7, 9), G49)
        assert rep.smooth_by_components == rep.smooth_by_pattern is True


class TestAnalyze:
    def test_reference_verdicts(self):
        assert analyze((1, 3, 5, 7), (3, 5, 7, 9), G49).verdict == SMOOTH
        assert analyze((1, 2, 6, 7), (3, 6, 7, 9), G49).verdict == EMPTY_QUOTIENT
        assert analyze((1, 3, 4, 6), (5, 7, 8, 9), G49).verdict == SINGULAR

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            analyze((1, 2, 3, 4), (3, 4, 5, 6), GrassCtx(4, 6))

    def test_accepts_prebuilt_indices(self):
        rep = analyze(idx((1, 3, 5, 7)), idx((3, 5, 7, 9)), G49)
        assert rep.verdict == SMOOTH

    def test_empty_quotient_report_shape(self):
        rep = analyze((1, 2, 6, 7), (3, 6, 7, 9), G49)
        assert rep.nonempty
        assert not rep.has_semistable
        assert rep.smooth_by_components is None
        assert rep.smooth_by_pattern is None
        assert not rep.mismatch
        assert rep.dimension == 9

    def test_component_flags_drive_verdict(self):
        rep = analyze((1, 2, 3, 5), (3, 5, 7, 9), G49)
        flagged = [
            (c.pair.v.entries, c.pair.w.entries)
            for c in rep.components
            if c.has_semistable
        ]
        assert flagged == [((1, 2, 5, 6), (3, 5, 7, 9))]
        assert rep.smooth_by_components is False

    def test_verdict_logic_exhaustive(self):
        for ctx in coprime_ctxs(7):
            elems = enumerate_indices(ctx)
            for v in elems:
                for w in elems:
                    if not v <= w:
                        continue
                    rep = analyze(v, w, ctx)
                    assert rep.verdict in (EMPTY_QUOTIENT, SMOOTH, SINGULAR)
                    assert (rep.verdict == EMPTY_QUOTIENT) == (not rep.has_semistable)
                    if rep.has_semistable:
                        assert rep.verdict == (
                            SMOOTH if rep.smooth_by_components else SINGULAR
                        )

    def test_criteria_agree_when_a_steps_by_two(self):
        # n = 2k + 1 makes every a-gap exactly 2; there the pattern shortcut
        # provably matches the component criterion
        for ctx in (GrassCtx(2, 5), GrassCtx(3, 7), GrassCtx(4, 9), GrassCtx(5, 11)):
            mp = minimal_pair(ctx)
            from richgit import indices_above, indices_below

            for v in indices_below(mp.v_min):
                for w in indices_above(mp.w_min):
                    rep = analyze(v, w, ctx)
                    assert not rep.mismatch, (ctx, v, w)

    def test_known_divergence_of_the_pattern_shortcut(self):
        # Documented divergence: the component criterion is the geometric
        # truth; the pattern shortcut's lower-index clause compares only
        # a_{j-1} with c_j + 1 and goes wrong when consecutive a-values do
        # not step by exactly 2.  Both directions occur.
        ctx = GrassCtx(3, 8)  # a = (3, 6, 8), one gap of 3
        rep = analyze((1, 2, 4), (3, 6, 8), ctx)
        assert rep.smooth_by_components is True
        assert rep.smooth_by_pattern is False
        assert rep.mismatch
        assert rep.verdict == SMOOTH  # components win

        ctx = GrassCtx(7, 12)  # a = (2,4,6,7,9,11,12), gaps of 1
        rep = analyze((1, 2, 3, 4, 6, 7, 8), (2, 4, 6, 7, 9, 11, 12), ctx)
        assert rep.smooth_by_components is False
        assert rep.smooth_by_pattern is True
        assert rep.verdict == SINGULAR
