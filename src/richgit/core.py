"""Ambient Grassmannian context, index tuples, Bruhat order, Richardson pairs.

Everything here is pure combinatorics on strictly increasing integer
tuples.  An element of I(k,n) stands for a Schubert class / torus-fixed
point of G(k,n); the componentwise partial order on these tuples is the
Bruhat order.  All values are immutable and all functions are pure, so
concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence


class GrassError(ValueError):
    """Base class for all validation and precondition failures."""


class WrongLength(GrassError):
    """Index tuple does not have exactly k entries."""


class NotStrictlyIncreasing(GrassError):
    """Index tuple entries fail to increase strictly."""


class OutOfRange(GrassError):
    """Index tuple entry falls outside [1, n]."""


class ContextMismatch(GrassError):
    """Two values from different (k, n) contexts were combined."""


class EmptyRichardson(GrassError):
    """Pair (v, w) with v not below w names an empty Richardson variety."""


@dataclass(frozen=True)
class GrassCtx:
    """The ambient pair (k, n) with 1 <= k < n."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if not (type(self.k) is int and type(self.n) is int):
            raise GrassError(f"k and n must be integers, got k={self.k!r} n={self.n!r}")
        if not 1 <= self.k < self.n:
            raise GrassError(f"need 1 <= k < n, got k={self.k} n={self.n}")

    def coprime(self) -> bool:
        return math.gcd(self.k, self.n) == 1

    def __str__(self) -> str:
        return f"G({self.k},{self.n})"


def fmt_tuple(entries: Sequence[int]) -> str:
    """Render a tuple the way it is written on the command line: (1,3,5,7)."""
    return "(" + ",".join(str(e) for e in entries) + ")"


@dataclass(frozen=True)
class GrassIndex:
    """A strictly increasing k-tuple in [1, n], tagged with its context.

    Comparisons between indices use the Bruhat (componentwise) order and
    raise ContextMismatch when the contexts differ; the order is partial,
    so ``not a <= b`` does not imply ``b <= a``.
    """

    entries: tuple[int, ...]
    ctx: GrassCtx

    def __post_init__(self) -> None:
        k, n = self.ctx.k, self.ctx.n
        if len(self.entries) != k:
            raise WrongLength(
                f"expected {k} entries for {self.ctx}, got {len(self.entries)}"
            )
        prev = 0
        for pos, e in enumerate(self.entries, start=1):
            if not 1 <= e <= n:
                raise OutOfRange(f"entry {e} at position {pos} is outside [1, {n}]")
            if e <= prev:
                raise NotStrictlyIncreasing(
                    f"entry {e} at position {pos} does not exceed {prev}"
                )
            prev = e

    def _check_ctx(self, other: "GrassIndex") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch(f"cannot compare {self.ctx} with {other.ctx}")

    def __le__(self, other: "GrassIndex") -> bool:
        self._check_ctx(other)
        return all(a <= b for a, b in zip(self.entries, other.entries))

    def __ge__(self, other: "GrassIndex") -> bool:
        return other.__le__(self)

    def __str__(self) -> str:
        return fmt_tuple(self.entries)


def make_index(values: Sequence[int], ctx: GrassCtx) -> GrassIndex:
    """Validated constructor for I(k,n) elements.

    Raises GrassError for an entry that is not an int (bools included),
    then WrongLength, NotStrictlyIncreasing or OutOfRange, naming the
    first offending position.
    """
    entries = tuple(values)
    for pos, e in enumerate(entries, start=1):
        if type(e) is not int:
            raise GrassError(f"entry {e!r} at position {pos} is not an integer")
    return GrassIndex(entries, ctx)


def enumerate_indices(ctx: GrassCtx) -> list[GrassIndex]:
    """All C(n,k) elements of I(k,n) in lexicographic order."""
    return [
        GrassIndex(c, ctx) for c in combinations(range(1, ctx.n + 1), ctx.k)
    ]


def length(w: GrassIndex) -> int:
    """Dimension of the Schubert variety X(w): the box count of its diagram."""
    return sum(e - i for i, e in enumerate(w.entries, start=1))


@dataclass(frozen=True)
class RichardsonId:
    """An ordered pair (v, w) with v <= w, naming the nonempty X^v_w."""

    v: GrassIndex
    w: GrassIndex

    def __post_init__(self) -> None:
        if self.v.ctx != self.w.ctx:
            raise ContextMismatch(
                f"v is from {self.v.ctx} but w is from {self.w.ctx}"
            )
        if not self.v <= self.w:
            raise EmptyRichardson(
                f"v={self.v} is not below w={self.w}; X^v_w is empty"
            )

    @property
    def ctx(self) -> GrassCtx:
        return self.v.ctx

    def __str__(self) -> str:
        return f"X^{self.v}_{self.w}"


def richardson_dim(rid: RichardsonId) -> int:
    """dim X^v_w = length(w) - length(v); zero exactly when v = w."""
    return length(rid.w) - length(rid.v)


def indices_below(bound: GrassIndex) -> list[GrassIndex]:
    """All a in I(k,n) with a <= bound, in lexicographic order."""
    k = bound.ctx.k
    out: list[GrassIndex] = []

    def rec(pos: int, prev: int, acc: tuple[int, ...]) -> None:
        if pos == k:
            out.append(GrassIndex(acc, bound.ctx))
            return
        for x in range(prev + 1, bound.entries[pos] + 1):
            rec(pos + 1, x, acc + (x,))

    rec(0, 0, ())
    return out


def indices_above(bound: GrassIndex) -> list[GrassIndex]:
    """All a in I(k,n) with a >= bound, in lexicographic order."""
    k, n = bound.ctx.k, bound.ctx.n
    out: list[GrassIndex] = []

    def rec(pos: int, prev: int, acc: tuple[int, ...]) -> None:
        if pos == k:
            out.append(GrassIndex(acc, bound.ctx))
            return
        lo = max(prev + 1, bound.entries[pos])
        hi = n - (k - pos - 1)
        for x in range(lo, hi + 1):
            rec(pos + 1, x, acc + (x,))

    rec(0, 0, ())
    return out
