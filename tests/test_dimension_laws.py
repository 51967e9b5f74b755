"""Laws on the dimension of the torus quotient, over every admissible pair with n <= 12.

For coprime k and n the centre (k/n, ..., k/n) lies on no proper face of
a weight polytope: a face cuts out a coordinate subset of size m, and
mk/n is an integer only for m = 0 or n.  So every semistable point is
stable, with a finite stabilizer in T modulo scalars, and the quotient of
X^v_w has dimension dim X^v_w - (n - 1) = rep.dimension - (n - 1).

Richardson varieties are normal (Brion, "Lectures on the geometry of
flag varieties", 2005), and a good quotient of a normal variety is
normal.  A normal variety is regular in codimension 1, so a quotient of
dimension 0 or 1 is smooth.  That law uses neither walk nor any rule of
the paper, so it checks analyze's verdict from outside.
"""

from collections import Counter
from itertools import combinations

import pytest

from richgit import SINGULAR, SMOOTH, analyze, indices_above, indices_below, minimal_pair
from richgit.singular import _schubert_walk

from helpers import coprime_ctxs


@pytest.fixture(scope="module")
def seen():
    """Counter of (verdict, quotient dimension) over every admissible pair with n <= 12."""
    seen = Counter()
    for ctx in coprime_ctxs(12):
        mp = minimal_pair(ctx)
        ws = indices_above(mp.w_min)
        for v in indices_below(mp.v_min):
            for w in ws:
                rep = analyze(v, w, ctx)
                seen[rep.verdict, rep.dimension - (ctx.n - 1)] += 1
    return seen


def test_every_admissible_pair_is_counted(seen):
    assert sum(seen.values()) == 15447
    # the minimal pair has dim X^v_w = a_k - 1 = n - 1, the least there is
    assert min(dim for _, dim in seen) == 0


def test_quotients_of_dimension_at_most_one_are_smooth(seen):
    small = [verdict for verdict, dim in seen if dim <= 1]
    assert small and all(verdict == SMOOTH for verdict in small)


def test_smallest_singular_quotient_has_dimension_four(seen):
    # empirical, for n <= 12: the normality law above gives only >= 2
    singular = {dim: count for (verdict, dim), count in seen.items() if verdict == SINGULAR}
    assert min(singular) == 4
    assert singular[4] == 4


def test_every_walk_component_has_codimension_at_least_three():
    """Each component w' of the walk of w has codimension sum(w) - sum(w') >= 3 in X(w).

    dim X(w) = sum(w_i - i), and removing a hook lowers it by the hook's
    cells: a valley's hook holds the valley, a cell south of it and a cell
    east of it, so at least three; one walk covers both sides through iota.
    Every index of every (k, n) with n <= 12.
    """
    walks = 0
    for n in range(2, 13):
        for k in range(1, n):
            for e in combinations(range(1, n + 1), k):
                for c in _schubert_walk(e):
                    walks += 1
                    assert sum(e) - sum(c) >= 3, (e, c)
    assert walks > 0
