"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py -v`` to see every line.

Criterion 7 pins the pattern shortcut against the component criterion.
The shortcut's lower-index clause is exact only where consecutive
a-values step by exactly 2, so the two disagree on 1,257 admissible pairs
with n <= 12.  The criterion checks the component verdict of every pair
against a closed form (the shortcut's b-clause plus the exact c-clause
derived by hook removal), and checks that the census reports exactly the
pairs where that closed form and the shortcut differ.  Criterion 9e
checks that the gap a_i >= a_{i-1} + 2 holds exactly when n > 2k.  The
component criterion is cross-validated independently (criterion 8 and
the reference verdicts); the ``verify`` report surfaces every
disagreement of the shortcut.
"""

import time
from math import comb

from richgit import (
    SINGULAR,
    SMOOTH,
    GrassCtx,
    RichardsonId,
    analyze,
    census,
    complement_index,
    enumerate_indices,
    from_partition,
    has_semistable,
    indices_above,
    indices_below,
    make_index,
    minimal_pair,
    opposite_singular_components,
    oracle_sweep,
    richardson_singular_components,
    schubert_singular_components,
    to_partition,
    verify,
)
from richgit.cli import to_json
from richgit.oracle import ERRATUM_NOTES

from helpers import G49, all_small_ctxs, coprime_ctxs


def check(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail and not ok:
        line += f" -- {detail}"
    print(line)
    assert ok, line


def test_criterion_01_minimal_elements():
    ctx = GrassCtx(4, 9)  # a fresh context: its minimal-pair memo is empty
    t0 = time.perf_counter()
    mp = minimal_pair(ctx)
    elapsed = time.perf_counter() - t0
    ok = (
        mp.w_min.entries == (3, 5, 7, 9)
        and mp.v_min.entries == (1, 3, 5, 7)
        and elapsed < 0.001
    )
    check(1, "minimal pair of G(4,9), exact, under 1 ms", ok, f"{elapsed*1e3:.3f} ms")


def test_criterion_02_schubert_singular_locus():
    got = {c.entries for c in schubert_singular_components(make_index((3, 5, 7, 9), G49))}
    documented = any("(3,4,5,7)" in note for note in ERRATUM_NOTES)
    ok = got == {(2, 3, 7, 9), (3, 4, 5, 9), (3, 5, 6, 7)} and documented
    check(2, "Schubert singular locus of X((3,5,7,9)), typo documented", ok, str(got))


def test_criterion_03_opposite_singular_locus():
    got = {c.entries for c in opposite_singular_components(make_index((2, 4, 5, 7), G49))}
    ok = got == {(4, 5, 6, 7), (2, 4, 7, 8)}
    check(3, "opposite singular locus of X^(2,4,5,7)", ok, str(got))


def test_criterion_04_richardson_singular_locus():
    rid = RichardsonId(make_index((2, 4, 5, 7), G49), make_index((3, 5, 7, 9), G49))
    got = {
        (c.pair.v.entries, c.pair.w.entries)
        for c in richardson_singular_components(rid)
    }
    ok = got == {
        ((2, 4, 5, 7), (3, 4, 5, 9)),
        ((2, 4, 5, 7), (3, 5, 6, 7)),
        ((2, 4, 7, 8), (3, 5, 7, 9)),
    }
    check(4, "Richardson singular locus with empty intersections filtered", ok, str(got))


def test_criterion_05_reference_verdicts():
    cases = [
        ((1, 3, 5, 7), (3, 5, 7, 9), SMOOTH),
        ((1, 3, 4, 6), (3, 5, 7, 9), SMOOTH),
        ((1, 2, 3, 5), (3, 5, 7, 9), SINGULAR),
        ((1, 3, 4, 6), (5, 7, 8, 9), SINGULAR),
    ]
    results = [(v, w, analyze(v, w, G49).verdict, exp) for v, w, exp in cases]
    ok = all(got == exp for _, _, got, exp in results)
    check(5, "four reference verdicts in G(4,9)", ok, str(results))


def test_criterion_06_semistability():
    mp = minimal_pair(G49)
    yes = RichardsonId(make_index((1, 2, 4, 7), G49), make_index((3, 6, 7, 9), G49))
    no = RichardsonId(make_index((1, 2, 6, 7), G49), make_index((3, 6, 7, 9), G49))
    ok = has_semistable(yes, mp) and not has_semistable(no, mp)
    check(6, "semistability of the two reference pairs", ok)


def pattern_smooth(rid, mp, *, exact):
    """Entry-pattern test on w = (b_j), v = (c_j), recomputed here.

    The b-clause is the stated one: b_j >= b_{j-1} + 2 requires
    a_j >= b_{j-1} + 1.  With exact=False the c-clause is the stated one
    (a_{j-1} <= c_j + 1), as documented for the smooth_by_pattern field of
    analyze.  With exact=True it is the clause that hook removal on the
    complemented diagram gives: an opposite valley j (c_j >= c_{j-1} + 2)
    yields a semistable component iff c_j <= a_{j-2}, with a_0 = 1.  The two
    c-clauses coincide only where a_{j-1} - a_{j-2} = 2.
    """
    b, c, a = rid.w.entries, rid.v.entries, mp.a
    for j in range(1, mp.ctx.k):  # 0-based j stands for 1-based j+1
        if b[j] >= b[j - 1] + 2 and not a[j] >= b[j - 1] + 1:
            return False
        if c[j] >= c[j - 1] + 2:
            if exact and not c[j] >= ((1,) + mp.a)[j - 1] + 1:
                return False
            if not exact and not a[j - 1] <= c[j] + 1:
                return False
    return True


DIVERGENCE_COUNTS = {
    "G(3,8)": 7,
    "G(2,9)": 4,
    "G(3,10)": 22,
    "G(7,10)": 11,
    "G(2,11)": 10,
    "G(3,11)": 70,
    "G(4,11)": 208,
    "G(7,11)": 78,
    "G(8,11)": 14,
    "G(5,12)": 441,
    "G(7,12)": 392,
}


def test_criterion_07_criterion_equivalence():
    t0 = time.perf_counter()
    component_diffs = []
    set_diffs = []
    wrong_direction = []
    per_ctx = {}
    for ctx in coprime_ctxs(12):
        mp = minimal_pair(ctx)
        expected = set()
        for v in indices_below(mp.v_min):
            for w in indices_above(mp.w_min):
                rid = RichardsonId(v, w)
                exact = pattern_smooth(rid, mp, exact=True)
                if analyze(v, w, ctx).smooth_by_components != exact:
                    component_diffs.append((str(ctx), v.entries, w.entries))
                pattern = pattern_smooth(rid, mp, exact=False)
                if exact != pattern:
                    expected.add((v.entries, w.entries, exact, pattern))
        rep = census(ctx)
        got = {
            (m.v.entries, m.w.entries, m.smooth_by_components, m.smooth_by_pattern)
            for m in rep.mismatches
        }
        if got != expected:
            set_diffs.append((str(ctx), sorted(got ^ expected)[:3]))
        if got:
            per_ctx[str(ctx)] = len(got)
        # n > 2k: every a-step is >= 2, so the exact c-clause is the weaker
        # one; n < 2k: every a-step is 1 or 2, so it is the stronger one.
        direction = (True, False) if ctx.n > 2 * ctx.k else (False, True)
        wrong_direction.extend(
            (str(ctx), m.v.entries, m.w.entries)
            for m in rep.mismatches
            if (m.smooth_by_components, m.smooth_by_pattern) != direction
        )
    elapsed = time.perf_counter() - t0
    total = sum(per_ctx.values())
    print(f"pattern/component disagreements by context: {per_ctx}")
    ok = (
        component_diffs == []
        and set_diffs == []
        and per_ctx == DIVERGENCE_COUNTS
        and total == 1257
        and wrong_direction == []
        and elapsed < 60.0
    )
    check(
        7,
        "components match the exact c-clause on every admissible pair, n <= 12, "
        "and the census reports exactly the 1,257 pairs where the pattern "
        "shortcut differs (components smooth, pattern singular iff n > 2k)",
        ok,
        f"{len(component_diffs)} component difference(s), first {component_diffs[:1]}; "
        f"mismatch sets differ in {set_diffs[:2]}; counts {per_ctx}; "
        f"{len(wrong_direction)} in the wrong direction; {elapsed:.1f}s",
    )


def test_criterion_08_oracle_equivalence():
    mismatches = []
    # every index of every (k, n), coprime or not: census checks only its side indices
    for ctx in all_small_ctxs(12):
        mismatches.extend(oracle_sweep(ctx))
    ok = mismatches == []
    check(8, "hook-removal formula matches cell-set hook oracle, n <= 12", ok, str(mismatches[:3]))


def test_criterion_09a_bruhat_partial_order():
    for ctx in all_small_ctxs(9):
        elems = enumerate_indices(ctx)
        ups = {a: frozenset(b for b in elems if a <= b) for a in elems}
        for a in elems:
            assert a in ups[a]
            for b in ups[a]:
                if a in ups[b]:
                    assert a == b
                assert ups[b] <= ups[a]
    check("9a", "Bruhat order is a partial order, n <= 9", True)


def test_criterion_09b_complement_involution_antiisomorphism():
    for ctx in all_small_ctxs(9):
        elems = enumerate_indices(ctx)
        comp = {a: complement_index(a) for a in elems}
        for a in elems:
            assert comp[comp[a]] == a
            for b in elems:
                assert (a <= b) == (comp[b] <= comp[a])
    check("9b", "complement is an involutive order antiisomorphism, n <= 9", True)


def test_criterion_09c_partition_bijection():
    for ctx in all_small_ctxs(9):
        for w in enumerate_indices(ctx):
            assert from_partition(to_partition(w)) == w
    check("9c", "index/partition conversion is a bijection, n <= 9", True)


def test_criterion_09d_index_counts():
    for ctx in all_small_ctxs(9):
        assert len(enumerate_indices(ctx)) == comb(ctx.n, ctx.k)
    check("9d", "|I(k,n)| = C(n,k), n <= 9", True)


def test_criterion_09e_a_sequence_gap():
    # From a_0 = 1 to a_k = n the steps average (n - 1)/k, which is below 2
    # when n < 2k; when n > 2k every step is at least floor(n/k) >= 2.
    wrong = []
    for ctx in coprime_ctxs(12, min_k=2):
        a = (1,) + minimal_pair(ctx).a
        gap = all(a[i] >= a[i - 1] + 2 for i in range(1, len(a)))
        if gap != (ctx.n > 2 * ctx.k):
            wrong.append((str(ctx), a))
    check(
        "9e",
        "a_i >= a_{i-1} + 2 with a_0 = 1 holds iff n > 2k, "
        "for all coprime 2 <= k < n <= 12",
        wrong == [],
        f"{len(wrong)} context(s) contradict it, first: {wrong[:1]}",
    )


def test_criterion_10_verify_determinism():
    first = to_json(verify().to_dict())
    second = to_json(verify().to_dict())
    ok = first == second
    check(10, "two default verify runs serialize byte-identically", ok)
