"""Young diagrams inside the k x (n-k) rectangle, and their local features.

An index w in I(k,n) corresponds to the weakly increasing part sequence
(w_1 - 1, ..., w_k - k); row i (counted from the bottom, 1-based) of the
Young diagram holds parts[i] left-justified boxes.  That single internal
convention is used everywhere; rendering flips rows only at output time.

Opposite diagrams (the right-anchored complements of ordinary diagrams)
are never manipulated directly: every opposite-side computation routes
through complement_index and the ordinary machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GrassCtx, GrassError, GrassIndex, RichardsonId


class NotAValley(GrassError):
    """Hook removal was requested at a row that is not a valley."""


@dataclass(frozen=True)
class BoxedPartition:
    """Row lengths of a Young diagram, bottom row first, weakly increasing."""

    parts: tuple[int, ...]
    ctx: GrassCtx

    def __post_init__(self) -> None:
        k, width = self.ctx.k, self.ctx.n - self.ctx.k
        if len(self.parts) != k:
            raise GrassError(f"expected {k} rows for {self.ctx}, got {len(self.parts)}")
        prev = 0
        for i, p in enumerate(self.parts, start=1):
            if not 0 <= p <= width:
                raise GrassError(f"row {i} has {p} boxes, outside [0, {width}]")
            if p < prev:
                raise GrassError(f"row {i} has {p} boxes, fewer than row {i - 1}")
            prev = p

    def boxes(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


def to_partition(w: GrassIndex) -> BoxedPartition:
    """Part sequence of the diagram of X(w): row i holds w_i - i boxes."""
    return BoxedPartition(
        tuple(e - i for i, e in enumerate(w.entries, start=1)), w.ctx
    )


def from_partition(p: BoxedPartition) -> GrassIndex:
    """Inverse of to_partition: entry i is parts[i] + i."""
    return GrassIndex(
        tuple(part + i for i, part in enumerate(p.parts, start=1)), p.ctx
    )


def complement_index(v: GrassIndex) -> GrassIndex:
    """The involution v'_i = n + 1 - v_{k+1-i}.

    It reverses the Bruhat order and flips the Young diagram: the diagram
    of v' is the 180-degree rotation of the complement of the diagram of v
    inside the rectangle.  The opposite Schubert variety X^v is isomorphic
    to the Schubert variety X(v'), which is how everything opposite-side
    is computed here.
    """
    n = v.ctx.n
    return GrassIndex(tuple(n + 1 - e for e in reversed(v.entries)), v.ctx)


def find_valleys(p: BoxedPartition) -> tuple[int, ...]:
    """Rows j (1-based, from the bottom) holding a valley of the diagram.

    A valley is a box with boxes to its south and east but none to its
    southeast; row j carries one exactly when parts[j] > parts[j-1] >= 1,
    i.e. at each boundary between two nonzero runs.
    """
    return tuple(
        j
        for j in range(2, len(p.parts) + 1)
        if p.parts[j - 1] > p.parts[j - 2] >= 1
    )


def remove_hook(p: BoxedPartition, valley_row: int) -> BoxedPartition:
    """Remove the hook through the valley at valley_row (two peaks + valley).

    The run of rows ending just below the valley drops by one box each,
    the valley row drops to that same shorter value, and every other row
    is unchanged.  In run-length terms (p_i^{q_i}, p_{i+1}^{q_{i+1}}, ...)
    around the valley becomes ((p_i - 1)^{q_i + 1}, p_{i+1}^{q_{i+1}-1}, ...).
    """
    if not (
        2 <= valley_row <= len(p.parts)
        and p.parts[valley_row - 1] > p.parts[valley_row - 2] >= 1
    ):
        raise NotAValley(f"row {valley_row} of {p} is not a valley")
    j0 = valley_row - 1
    below = p.parts[j0 - 1]
    start = j0 - 1
    while start > 0 and p.parts[start - 1] == below:
        start -= 1
    parts = (
        p.parts[:start]
        + (below - 1,) * (j0 - start + 1)
        + p.parts[j0 + 1 :]
    )
    return BoxedPartition(parts, p.ctx)


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
