"""The involution iota and the symmetry it gives the quotients.

iota = complement_index, iota(u)_i = n + 1 - u_{k+1-i}, is the action on
T-fixed points of the antidiagonal permutation matrix J of GL_n.  J
normalizes the maximal torus T, fixes the centre (k/n, ..., k/n) of its
weight polytope, and swaps the Borel subgroup with its opposite, so it
carries X^v_w onto X^{iota(w)}_{iota(v)}, semistable points onto
semistable points, and the torus quotients onto each other.  So the
component verdict is iota-symmetric, and the singular-locus listing of
(iota(w), iota(v)) is the iota-image of that of (v, w) with its sides
swapped.  The pattern shortcut is not symmetric: its lower clause P is
not its upper clause read through iota, and how often that shows is
pinned here as measured, not as a theorem.
"""

from richgit import (
    OPPOSITE_SIDE,
    SCHUBERT_SIDE,
    RichardsonId,
    analyze,
    complement_index,
    enumerate_indices,
    richardson_singular_components,
)

from helpers import admissible_reports, all_small_ctxs, coprime_ctxs

SWAPPED = {SCHUBERT_SIDE: OPPOSITE_SIDE, OPPOSITE_SIDE: SCHUBERT_SIDE}


def dual_reports():
    """(analyze(v, w), analyze(iota(w), iota(v))) for every admissible pair with n <= 12."""
    for ctx in coprime_ctxs(12):
        for rep in admissible_reports(ctx):
            v, w = rep.pair.v, rep.pair.w
            yield rep, analyze(complement_index(w), complement_index(v), ctx)


def test_verdict_is_iota_symmetric():
    pairs = 0
    for rep, dual in dual_reports():
        assert dual.has_semistable, rep.pair
        assert dual.verdict == rep.verdict, rep.pair
        assert dual.dimension == rep.dimension, rep.pair
        pairs += 1
    assert pairs == 15_447


def test_components_map_through_iota_with_sides_swapped():
    # order included: the dual listing starts with the images of the
    # opposite part, as the Schubert walk of iota(v) is iota of v's
    # opposite components
    pairs = 0
    for ctx in all_small_ctxs(9):
        elems = enumerate_indices(ctx)
        for v in elems:
            for w in elems:
                if not v <= w:
                    continue
                comps = richardson_singular_components(RichardsonId(v, w))
                mapped = [
                    (complement_index(c.pair.w), complement_index(c.pair.v), SWAPPED[c.source])
                    for c in comps
                ]
                opposite = [m for m, c in zip(mapped, comps) if c.source == OPPOSITE_SIDE]
                schubert = [m for m, c in zip(mapped, comps) if c.source == SCHUBERT_SIDE]
                dual = richardson_singular_components(
                    RichardsonId(complement_index(w), complement_index(v))
                )
                got = [(c.pair.v, c.pair.w, c.source) for c in dual]
                assert got == opposite + schubert, (ctx, v.entries, w.entries)
                pairs += 1
    assert pairs == 23_694


def test_pattern_shortcut_asymmetry_is_pinned():
    # empirical: the shortcut's verdict changes under iota at 2,154 of the
    # 15,447 admissible pairs with n <= 12, and 1,077 of those are among
    # the 1,257 pairs where it disagrees with the component verdict
    broken = broken_mismatches = mismatches = 0
    for rep, dual in dual_reports():
        if rep.smooth_by_pattern != dual.smooth_by_pattern:
            broken += 1
            broken_mismatches += rep.mismatch
        mismatches += rep.mismatch
    assert (broken, broken_mismatches, mismatches) == (2_154, 1_077, 1_257)
