"""Irreducible components of singular loci.

Schubert side: one component per valley of the Young diagram of w, got by
removing the hook through that valley.  In terms of the part sequence
(p_1^{q_1}, ..., p_r^{q_r}) of X(w) this is the classical run-length
substitution: the r - 1 components replace the adjacent runs
p_i^{q_i}, p_{i+1}^{q_{i+1}} with (p_i - 1)^{q_i + 1}, p_{i+1}^{q_{i+1} - 1}.
It is computed on the entries of w by _schubert_components (over
diagrams._valleys and diagrams._remove_hook): the entry of the valley row
leaves and one less than the first entry of the run below it enters.

Opposite side: X^v is isomorphic to X(v') for the complemented index, so
its components are the complements of the Schubert-side components of v'.
That is computed on entries: complement v, run _schubert_components,
complement each result back.

Richardson: the singular locus of X^v_w is the union of the Schubert-side
components intersected with X^v and the opposite-side components
intersected with X(w); empty intersections are dropped via the v <= w
nonemptiness test.  richardson_singular_components is the public listing
and the reference for criteria.analyze, which walks the cached sides once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import le

from .core import GrassIndex, RichardsonId, _index, _richardson
from .diagrams import _complement, _remove_hook, _valleys

SCHUBERT_SIDE = "SCHUBERT_SIDE"
OPPOSITE_SIDE = "OPPOSITE_SIDE"

# Entries kept by each lru cache of the library (here and minimal_pair).
# A default verify fills 431 entries of each, one per index of the
# rectangle's sides (the oracle sweep runs on entry tuples, uncached),
# and 6,000 random analyze calls in G(7,16)..G(11,24) about 3,750 of
# each, so neither evicts; larger sweeps evict instead of growing
# without bound.
CACHE_SIZE = 2**16


@dataclass(frozen=True)
class SingularComponent:
    """One irreducible component of a Richardson singular locus, with its origin."""

    pair: RichardsonId
    source: str


def _component(pair: RichardsonId, source: str) -> SingularComponent:
    """SingularComponent built as a trusted record (see core._index)."""
    comp = object.__new__(SingularComponent)
    fields = comp.__dict__
    fields["pair"] = pair
    fields["source"] = source
    return comp


def _schubert_components(e: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Entries of the singular-locus components of X(w), w with entries e.

    One component per valley, bottom row first, each in the I(k,n) of e.
    The only place hook removal makes components; the public functions
    below wrap it.
    """
    return [_remove_hook(e, j, s) for j, s in _valleys(e)]


@lru_cache(maxsize=CACHE_SIZE)
def schubert_singular_components(w: GrassIndex) -> tuple[GrassIndex, ...]:
    """Indices of the r - 1 singular-locus components of X(w).

    Empty when the part sequence has at most one nonzero run (X(w) smooth).
    Components are ordered by the valley they remove, bottom row first.
    """
    ctx = w.ctx
    return tuple([_index(c, ctx) for c in _schubert_components(w.entries)])


@lru_cache(maxsize=CACHE_SIZE)
def opposite_singular_components(v: GrassIndex) -> tuple[GrassIndex, ...]:
    """Indices v' of the singular-locus components X^{v'} of X^v.

    The complements of the Schubert-side components of the complement of v,
    in the same order.
    """
    n, ctx = v.ctx.n, v.ctx
    components = _schubert_components(_complement(v.entries, n))
    return tuple([_index(_complement(c, n), ctx) for c in components])


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
        _component(_richardson(v, w2), SCHUBERT_SIDE)
        for w2 in schubert_singular_components(w)
        if all(map(le, ve, w2.entries))
    ]
    opposite = [
        _component(_richardson(v2, w), OPPOSITE_SIDE)
        for v2 in opposite_singular_components(v)
        if all(map(le, v2.entries, we))
    ]
    return tuple(schubert + opposite)
