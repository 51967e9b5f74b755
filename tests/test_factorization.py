"""The product structure of the census, pinned from the component functions.

census builds its verdicts from this product (see its docstring);
test_oracle.py checks it there against analyze on every pair.

On the admissible rectangle (v <= v_min, w >= w_min) of a coprime
context, write

- A(w): no Schubert-side component w' of w has w' >= w_min;
- B(v): no opposite-side component v' of v has v' <= v_min;
- P(v): the pattern shortcut's lower-index clause, read on v alone.

Complementing maps {v <= v_min} onto {w >= w_min}, so B(v) = A(v') and
both sides have the same size s.  The component verdict is
smooth(v, w) = B(v) and A(w), and the shortcut's upper-index clause is A,
so the census mismatch set is M_v x {w : A(w)} with M_v = {v : P(v) != B(v)}.
A and B are defined here from the public component functions only.
"""

from richgit import (
    SMOOTH,
    analyze,
    census,
    complement_index,
    indices_above,
    indices_below,
    minimal_pair,
    opposite_singular_components,
    schubert_singular_components,
)

from helpers import coprime_ctxs


def A(w, mp):
    return not any(mp.w_min <= c for c in schubert_singular_components(w))


def B(v, mp):
    return not any(c <= mp.v_min for c in opposite_singular_components(v))


def upper_clause(w, mp):
    """The shortcut's clause on w = (b_j): b_j >= b_{j-1} + 2 requires a_j >= b_{j-1} + 1."""
    b, a = w.entries, mp.a
    return all(b[j] < b[j - 1] + 2 or a[j] >= b[j - 1] + 1 for j in range(1, len(b)))


def P(v, mp):
    """The shortcut's clause on v = (c_j): c_j >= c_{j-1} + 2 requires a_{j-1} <= c_j + 1."""
    c, a = v.entries, mp.a
    return all(c[j] < c[j - 1] + 2 or a[j - 1] <= c[j] + 1 for j in range(1, len(c)))


# (s, |A|, |M_v|) for every coprime context with n <= 14.  The census of
# a context has s * s pairs, |A| * |A| smooth ones and |M_v| * |A| mismatches.
SIDE_TABLE = {
    (1, 2): (1, 1, 0), (1, 3): (1, 1, 0), (2, 3): (1, 1, 0),
    (1, 4): (1, 1, 0), (3, 4): (1, 1, 0),
    (1, 5): (1, 1, 0), (2, 5): (2, 2, 0), (3, 5): (2, 2, 0), (4, 5): (1, 1, 0),
    (1, 6): (1, 1, 0), (5, 6): (1, 1, 0),
    (1, 7): (1, 1, 0), (2, 7): (3, 3, 0), (3, 7): (5, 5, 0), (4, 7): (5, 5, 0),
    (5, 7): (3, 3, 0), (6, 7): (1, 1, 0),
    (1, 8): (1, 1, 0), (3, 8): (7, 7, 1), (5, 8): (7, 7, 0), (7, 8): (1, 1, 0),
    (1, 9): (1, 1, 0), (2, 9): (4, 4, 1), (4, 9): (14, 13, 0), (5, 9): (14, 13, 0),
    (7, 9): (4, 4, 0), (8, 9): (1, 1, 0),
    (1, 10): (1, 1, 0), (3, 10): (12, 11, 2), (7, 10): (12, 11, 1), (9, 10): (1, 1, 0),
    (1, 11): (1, 1, 0), (2, 11): (5, 5, 2), (3, 11): (15, 14, 5), (4, 11): (30, 26, 8),
    (5, 11): (42, 34, 0), (6, 11): (42, 34, 0), (7, 11): (30, 26, 3),
    (8, 11): (15, 14, 1), (9, 11): (5, 5, 0), (10, 11): (1, 1, 0),
    (1, 12): (1, 1, 0), (5, 12): (66, 49, 9), (7, 12): (66, 49, 8), (11, 12): (1, 1, 0),
    (1, 13): (1, 1, 0), (2, 13): (6, 6, 3), (3, 13): (22, 19, 10), (4, 13): (55, 41, 14),
    (5, 13): (99, 69, 21), (6, 13): (132, 89, 0), (7, 13): (132, 89, 0),
    (8, 13): (99, 69, 12), (9, 13): (55, 41, 10), (10, 13): (22, 19, 3),
    (11, 13): (6, 6, 0), (12, 13): (1, 1, 0),
    (1, 14): (1, 1, 0), (3, 14): (26, 23, 14), (5, 14): (143, 97, 43),
    (9, 14): (143, 97, 27), (11, 14): (26, 23, 3), (13, 14): (1, 1, 0),
}


def test_lower_side_is_the_complemented_upper_side():
    checked = 0
    for ctx in coprime_ctxs(14):
        mp = minimal_pair(ctx)
        for v in indices_below(mp.v_min):
            assert B(v, mp) == A(complement_index(v), mp), (ctx, v.entries)
            checked += 1
    assert checked == sum(s for s, _, _ in SIDE_TABLE.values())


def test_upper_clause_is_A():
    for ctx in coprime_ctxs(14):
        mp = minimal_pair(ctx)
        for w in indices_above(mp.w_min):
            assert upper_clause(w, mp) == A(w, mp), (ctx, w.entries)


def test_verdict_factors_on_every_pair_up_to_12():
    pairs = mismatches = 0
    for ctx in coprime_ctxs(12):
        mp = minimal_pair(ctx)
        ws = [(w, A(w, mp)) for w in indices_above(mp.w_min)]
        for v in indices_below(mp.v_min):
            b = B(v, mp)
            in_m = b != P(v, mp)
            for w, a in ws:
                rep = analyze(v, w, ctx)
                assert (rep.verdict == SMOOTH) == (b and a), (ctx, v.entries, w.entries)
                assert rep.mismatch == (in_m and a), (ctx, v.entries, w.entries)
                pairs += 1
                mismatches += rep.mismatch
    assert (pairs, mismatches) == (15_447, 1_257)


def test_side_table_up_to_14():
    table = {}
    for ctx in coprime_ctxs(14):
        mp = minimal_pair(ctx)
        vs = indices_below(mp.v_min)
        _, a, m = table[ctx.k, ctx.n] = (
            len(vs),
            sum(A(w, mp) for w in indices_above(mp.w_min)),
            sum(B(v, mp) != P(v, mp) for v in vs),
        )
        # census keeps the product factored: {w : A(w)} and M_v, and |B| = |A|
        rep = census(ctx)
        assert (len(rep.smooth_ws), len(rep.mismatch_rows), rep.smooth_count) == (a, m, a**2), ctx
    assert table == SIDE_TABLE
    # s and |A| are symmetric under k <-> n-k; |M_v| is not (G(3,8) 1, G(5,8) 0)
    assert all(table[n - k, n][:2] == sa[:2] for (k, n), sa in table.items())
    assert table[5, 14] == (143, 97, 43) and 43 * 97 == 4_171
    assert sum(a * m for (_, n), (_, a, m) in table.items() if n <= 12) == 1_257
