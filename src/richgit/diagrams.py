"""Young diagrams inside the k x (n-k) rectangle, and their local features.

An index w in I(k,n) corresponds to the weakly increasing part sequence
(w_1 - 1, ..., w_k - k); row i (counted from the bottom, 1-based) of the
Young diagram holds parts[i] left-justified boxes.  That single internal
convention is used everywhere; rendering flips rows only at output time.
Valleys and hook removal are read off the entries of the index directly
(_valleys, _remove_hook), so the singular-locus code needs no partition;
singular.schubert_singular_components is their public form.

Opposite diagrams (the right-anchored complements of ordinary diagrams)
are never manipulated directly: every opposite-side computation routes
through the complement (complement_index, or _complement on entries) and
the ordinary machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import GrassCtx, GrassError, GrassIndex, RichardsonId, _fmt_ctx, _fmt_int, _index


@dataclass(frozen=True)
class BoxedPartition:
    """Row lengths of a Young diagram, bottom row first, weakly increasing."""

    parts: tuple[int, ...]
    ctx: GrassCtx

    def __post_init__(self) -> None:
        if type(self.parts) is not tuple:
            raise GrassError(f"parts must be a tuple, not {type(self.parts).__name__}")
        for i, p in enumerate(self.parts, start=1):
            if type(p) is not int:
                raise GrassError(f"row {i} has {p!r} boxes, not an integer")
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


def _partition(parts: tuple[int, ...], ctx: GrassCtx) -> BoxedPartition:
    """BoxedPartition without validation, for parts derived from valid ones."""
    p = object.__new__(BoxedPartition)
    object.__setattr__(p, "parts", parts)
    object.__setattr__(p, "ctx", ctx)
    return p


def to_partition(w: GrassIndex) -> BoxedPartition:
    """Part sequence of the diagram of X(w): row i holds w_i - i boxes."""
    return _partition(tuple(e - i for i, e in enumerate(w.entries, start=1)), w.ctx)


def from_partition(p: BoxedPartition) -> GrassIndex:
    """Inverse of to_partition: entry i is parts[i] + i."""
    return _index(tuple(part + i for i, part in enumerate(p.parts, start=1)), p.ctx)


def complement_index(v: GrassIndex) -> GrassIndex:
    """The involution v'_i = n + 1 - v_{k+1-i}.

    It reverses the Bruhat order and flips the Young diagram: the diagram
    of v' is the 180-degree rotation of the complement of the diagram of v
    inside the rectangle.  The opposite Schubert variety X^v is isomorphic
    to the Schubert variety X(v'), which is how everything opposite-side
    is computed here.
    """
    return _index(_complement(v.entries, v.ctx.n), v.ctx)


def _complement(e: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Entries of complement_index: e'_i = n + 1 - e_{k+1-i}."""
    m = n + 1
    return tuple([m - x for x in reversed(e)])


def _valleys(w: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    """Valleys of the diagram of the index with entries w, bottom first.

    A valley is a box with boxes to its south and east but none to its
    southeast.  Yields 0-based (j, s) for each row j holding one.  Equal
    rows of the diagram are runs of consecutive entries, so row j is
    longer than row j-1 exactly when w_j > w_{j-1} + 1, and row j-1 holds
    a box exactly when w_{j-1} > j.  Rows s..j-1 form the run just below
    row j.
    """
    s = 0
    for j in range(1, len(w)):
        if w[j] > w[j - 1] + 1:
            if w[j - 1] > j:
                yield j, s
            s = j


def _remove_hook(w: tuple[int, ...], j: int, s: int) -> tuple[int, ...]:
    """Entries after removing the hook through the valley (j, s) of _valleys.

    Rows s..j-1 drop by one box and row j drops to their new length, so
    entries s..j become the consecutive run w_s - 1, ..., w_{j-1}: the
    entry w_j leaves and w_s - 1 enters.
    """
    out = list(w)
    del out[j]
    out.insert(s, w[s] - 1)
    return tuple(out)


def render_skew(rid: RichardsonId) -> str:
    """Text grid of the skew diagram of X^v_w, top row of the rectangle first.

    Cell (row i from the bottom, column c) prints 'v' inside the diagram
    of v, '#' in the skew region, '.' outside the diagram of w; this emits
    exactly length(v) 'v' cells and dim X^v_w '#' cells.  No trailing
    whitespace; rows joined by newlines.
    """
    width = rid.ctx.n - rid.ctx.k
    inner, outer = to_partition(rid.v).parts, to_partition(rid.w).parts
    return "\n".join(
        "v" * inn + "#" * (out - inn) + "." * (width - out)
        for inn, out in zip(reversed(inner), reversed(outer))
    )
