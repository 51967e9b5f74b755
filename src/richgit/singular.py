"""Irreducible components of singular loci.

Schubert side: one component per valley of the Young diagram of w, got by
removing the hook through that valley.  In terms of the part sequence
(p_1^{q_1}, ..., p_r^{q_r}) of X(w) this is the classical run-length
substitution: the r - 1 components replace the adjacent runs
p_i^{q_i}, p_{i+1}^{q_{i+1}} with (p_i - 1)^{q_i + 1}, p_{i+1}^{q_{i+1} - 1}.
It is computed on the entries of w (diagrams._valleys and
diagrams._remove_hook): the entry of the valley row leaves and one less
than the first entry of the run below it enters.

Opposite side: X^v is isomorphic to X(v') for the complemented index, so
its components are the complements of the Schubert-side components of v'.

Richardson: the singular locus of X^v_w is the union of the Schubert-side
components intersected with X^v and the opposite-side components
intersected with X(w); empty intersections are dropped via the v <= w
nonemptiness test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import GrassIndex, RichardsonId, _index, _richardson
from .diagrams import _remove_hook, _valleys, complement_index

SCHUBERT_SIDE = "SCHUBERT_SIDE"
OPPOSITE_SIDE = "OPPOSITE_SIDE"

# Entries kept by each lru cache of the library (here and minimal_pair).
# A default verify fills 4,568 Schubert-side entries and 6,000 random
# analyze calls in G(7,16)..G(11,24) about 7,100, so neither evicts;
# larger sweeps evict instead of growing without bound.
CACHE_SIZE = 2**16


@dataclass(frozen=True)
class SingularComponent:
    """One irreducible component of a Richardson singular locus, with its origin."""

    pair: RichardsonId
    source: str


@lru_cache(maxsize=CACHE_SIZE)
def schubert_singular_components(w: GrassIndex) -> tuple[GrassIndex, ...]:
    """Indices of the r - 1 singular-locus components of X(w).

    Empty when the part sequence has at most one nonzero run (X(w) smooth).
    Components are ordered by the valley they remove, bottom row first.
    """
    e, ctx = w.entries, w.ctx
    return tuple(_index(_remove_hook(e, j, s), ctx) for j, s in _valleys(e))


@lru_cache(maxsize=CACHE_SIZE)
def opposite_singular_components(v: GrassIndex) -> tuple[GrassIndex, ...]:
    """Indices v' of the singular-locus components X^{v'} of X^v."""
    return tuple(
        complement_index(u)
        for u in schubert_singular_components(complement_index(v))
    )


def richardson_singular_components(
    rid: RichardsonId,
) -> tuple[SingularComponent, ...]:
    """Nonempty components of the singular locus of X^v_w, tagged by side.

    Returns the pairs (v, w') for Schubert-side components w' of w with
    v <= w', then the pairs (v', w) for opposite-side components v' of v
    with v' <= w.  Empty for smooth Richardson varieties.  No pair repeats:
    the w' are distinct (one per valley) and strictly below w, and the v'
    are distinct (complements of distinct indices) while keeping w.
    """
    v, w = rid.v, rid.w
    schubert = tuple(
        SingularComponent(_richardson(v, w2), SCHUBERT_SIDE)
        for w2 in schubert_singular_components(w)
        if v <= w2
    )
    opposite = tuple(
        SingularComponent(_richardson(v2, w), OPPOSITE_SIDE)
        for v2 in opposite_singular_components(v)
        if v2 <= w
    )
    return schubert + opposite
