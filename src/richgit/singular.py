"""Irreducible components of singular loci.

Schubert side: one component per valley of the Young diagram of w, got by
removing the hook through that valley.  In terms of the part sequence
(p_1^{q_1}, ..., p_r^{q_r}) of X(w) this is the classical run-length
substitution: the r - 1 components replace the adjacent runs
p_i^{q_i}, p_{i+1}^{q_{i+1}} with (p_i - 1)^{q_i + 1}, p_{i+1}^{q_{i+1} - 1}.
It is computed on the entries of w (0-based) by one valley walk,
_schubert_walk.  Equal rows of the diagram are runs of consecutive
entries, so row j is a valley row exactly when w_j > w_{j-1} + 1 (row j
is longer than row j-1) and w_{j-1} > j (row j-1 holds a box).  With
rows s..j-1 the run just below, removing the hook makes entries s..j the
consecutive run w_s - 1, ..., w_{j-1}: w_j leaves and w_s - 1 enters.

Opposite side: X^v is isomorphic to X(v^c) for the complemented index
v^c, so its components are the complements of the Schubert-side
components of v^c.  _opposite_walk applies that rule mirrored on the
entries of v, with no complement: scanning J from k-2 down to 0, a gap
v_{J+1} > v_J + 1 with v_{J+1} <= n + 1 - k + J is a valley of v^c, and
with rows J+1..t the run just above, the component v' makes entries
J..t the consecutive run v_{J+1}, ..., v_t + 1: v_J leaves and v_t + 1
enters, in the order of the valleys of v^c.  The complement route is
its test reference.

Each walk returns the entry tuples of its components, and
schubert_singular_components and opposite_singular_components build a
new tuple of indices from them on each call; nothing is memoized.  The
walks are the component listing only: criteria.analyze decides its
verdict from two clauses on consecutive entries, which its docstring
derives from these walks and the tests check against them.

Richardson: the singular locus of X^v_w is the union of the Schubert-side
components intersected with X^v and the opposite-side components
intersected with X(w); empty intersections are dropped via the v <= w
nonemptiness test.  richardson_singular_components is the one listing,
and AnalysisReport.components is that listing with a semistability flag
per component.
"""

from __future__ import annotations

from operator import le

from .core import GrassIndex, RichardsonId, _index, _record, _Record, _richardson

__all__ = [
    "OPPOSITE_SIDE",
    "SCHUBERT_SIDE",
    "SingularComponent",
    "opposite_singular_components",
    "richardson_singular_components",
    "schubert_singular_components",
]

SCHUBERT_SIDE = "SCHUBERT_SIDE"
OPPOSITE_SIDE = "OPPOSITE_SIDE"


@_record
class SingularComponent(_Record):
    """One irreducible component of a Richardson singular locus, with its origin."""

    pair: RichardsonId
    source: str


def _schubert_walk(e: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Entries w' of the Schubert-side components, bottom valley first.

    e holds the entries of w; each w' is in the I(k,n) of e.  The only
    place hook removal makes Schubert-side components.
    """
    out = []
    s = 0
    for j in range(1, len(e)):
        x = e[j - 1]
        if e[j] > x + 1:
            if x > j:
                out.append(e[:s] + (e[s] - 1,) + e[s:j] + e[j + 1 :])
            s = j
    return tuple(out)


def _opposite_walk(e: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    """Entries v' of the opposite-side components of v in I(k,n).

    e holds the entries of v; the mirrored rule of the module docstring,
    top gap first.  The only place opposite-side components are made.
    """
    out = []
    k = len(e)
    t = k - 1
    top = n + 1 - k
    for J in range(k - 2, -1, -1):
        y = e[J + 1]
        if y > e[J] + 1:
            if y <= top + J:
                out.append(e[:J] + e[J + 1 : t + 1] + (e[t] + 1,) + e[t + 1 :])
            t = J
    return tuple(out)


def schubert_singular_components(w: GrassIndex) -> tuple[GrassIndex, ...]:
    """Indices of the r - 1 singular-locus components of X(w).

    Empty when the part sequence has at most one nonzero run (X(w) smooth).
    Components are ordered by the valley they remove, bottom row first.
    """
    ctx = w.ctx
    return tuple([_index(c, ctx) for c in _schubert_walk(w.entries)])


def opposite_singular_components(v: GrassIndex) -> tuple[GrassIndex, ...]:
    """Indices v' of the singular-locus components X^{v'} of X^v.

    The complements of the Schubert-side components of the complement of v,
    in the same order.
    """
    ctx = v.ctx
    return tuple([_index(c, ctx) for c in _opposite_walk(v.entries, ctx.n)])


def richardson_singular_components(
    rid: RichardsonId,
) -> tuple[SingularComponent, ...]:
    """Nonempty components of the singular locus of X^v_w, tagged by side.

    Returns the pairs (v, w') for Schubert-side components w' of w with
    v <= w', then the pairs (v', w) for opposite-side components v' of v
    with v' <= w.  Empty for smooth Richardson varieties.  No pair repeats:
    the w' are distinct (one per valley) and strictly below w, and the v'
    are distinct (complements of distinct indices) while keeping w.  All
    of these indices share rid's context, so the v <= w' and v' <= w tests
    compare entries directly.
    """
    v, w = rid.v, rid.w
    ve, we = v.entries, w.entries
    schubert = [
        SingularComponent(_richardson(v, w2), SCHUBERT_SIDE)
        for w2 in schubert_singular_components(w)
        if all(map(le, ve, w2.entries))
    ]
    opposite = [
        SingularComponent(_richardson(v2, w), OPPOSITE_SIDE)
        for v2 in opposite_singular_components(v)
        if all(map(le, v2.entries, we))
    ]
    return tuple(schubert + opposite)
