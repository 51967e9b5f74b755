"""Young diagrams inside the k x (n-k) rectangle, and their local features.

An index w in I(k,n) corresponds to the weakly increasing part sequence
(w_1 - 1, ..., w_k - k); row i (counted from the bottom, 1-based) of the
Young diagram holds parts[i] left-justified boxes.  That single internal
convention is used everywhere; rendering flips rows only at output time.
Valleys and hook removal are read off the entries of the index directly
by the valley walk of the singular module, so the singular-locus code
needs no partition.

Opposite diagrams (the right-anchored complements of ordinary diagrams)
are never built: the involution iota, _iota on entries and
complement_index on indices, maps them to ordinary ones, and the
singular module reads the opposite side through _iota.
"""

from __future__ import annotations

from .core import GrassCtx, GrassError, GrassIndex, RichardsonId, _fmt_ctx, _fmt_int, _index
from .core import _record, _Record, _require_type

__all__ = [
    "BoxedPartition",
    "complement_index",
    "from_partition",
    "render_skew",
    "to_partition",
]


@_record
class BoxedPartition(_Record):
    """Row lengths of a Young diagram, bottom row first, weakly increasing."""

    parts: tuple[int, ...]
    ctx: GrassCtx

    def __post_init__(self) -> None:
        if type(self.parts) is not tuple:
            raise GrassError(f"parts must be a tuple, not {type(self.parts).__name__}")
        for i, p in enumerate(self.parts, start=1):
            if type(p) is not int:
                raise GrassError(f"row {i} has {p!r} boxes, not an integer")
        _require_type("ctx", self.ctx, GrassCtx)
        k, width = self.ctx.k, self.ctx.n - self.ctx.k
        if len(self.parts) != k:
            raise GrassError(
                f"expected {_fmt_int(k)} rows for {_fmt_ctx(self.ctx)}, got {len(self.parts)}"
            )
        prev = 0
        for i, p in enumerate(self.parts, start=1):
            if not 0 <= p <= width:
                raise GrassError(
                    f"row {i} has {_fmt_int(p)} boxes, outside [0, {_fmt_int(width)}]"
                )
            if p < prev:
                raise GrassError(f"row {i} has {_fmt_int(p)} boxes, fewer than row {i - 1}")
            prev = p

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


_partition = BoxedPartition._trusted


def to_partition(w: GrassIndex) -> BoxedPartition:
    """Part sequence of the diagram of X(w): row i holds w_i - i boxes."""
    _require_type("w", w, GrassIndex)
    return _partition(tuple(e - i for i, e in enumerate(w.entries, start=1)), w.ctx)


def from_partition(p: BoxedPartition) -> GrassIndex:
    """Inverse of to_partition: entry i is parts[i] + i."""
    _require_type("p", p, BoxedPartition)
    return _index(tuple(part + i for i, part in enumerate(p.parts, start=1)), p.ctx)


def _iota(e: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Entries of iota(u) for the entries e of an index u of I(k,n).

    The one complement formula: iota(u)_i = n + 1 - u_{k+1-i}.
    """
    m = n + 1
    return tuple([m - x for x in reversed(e)])


def complement_index(v: GrassIndex) -> GrassIndex:
    """The involution iota: v'_i = n + 1 - v_{k+1-i}, computed by _iota.

    It reverses the Bruhat order and flips the Young diagram: the diagram
    of v' is the 180-degree rotation of the complement of the diagram of v
    inside the rectangle.  The opposite Schubert variety X^v is isomorphic
    to the Schubert variety X(v'), so the singular module gets the
    opposite-side components of v as the iota-images of the Schubert-side
    components of v'.  A v that is not a GrassIndex raises GrassError
    naming its type.
    """
    _require_type("v", v, GrassIndex)
    return _index(_iota(v.entries, v.ctx.n), v.ctx)


def render_skew(rid: RichardsonId) -> str:
    """Text grid of the skew diagram of X^v_w, top row of the rectangle first.

    Cell (row i from the bottom, column c) prints 'v' inside the diagram
    of v, '#' in the skew region, '.' outside the diagram of w; this emits
    exactly length(v) 'v' cells and dim X^v_w '#' cells.  No trailing
    whitespace; rows joined by newlines.
    """
    _require_type("rid", rid, RichardsonId)
    width = rid.ctx.n - rid.ctx.k
    inner, outer = to_partition(rid.v).parts, to_partition(rid.w).parts
    return "\n".join(
        "v" * inn + "#" * (out - inn) + "." * (width - out)
        for inn, out in zip(reversed(inner), reversed(outer))
    )
