"""Ambient Grassmannian context, index tuples, Bruhat order, Richardson pairs.

Everything here is pure combinatorics on strictly increasing integer
tuples.  An element of I(k,n) stands for a Schubert class / torus-fixed
point of G(k,n); the componentwise partial order on these tuples is the
Bruhat order.  All values are immutable and all functions are pure.  The
one write after construction is the minimal-pair memo of a GrassCtx (see
_PairMemo).  It is idempotent: two threads that fill the slot store equal
values, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import combinations
from operator import le, lt

__all__ = [
    "ContextMismatch",
    "EmptyRichardson",
    "GrassCtx",
    "GrassError",
    "GrassIndex",
    "NotStrictlyIncreasing",
    "OutOfRange",
    "RichardsonId",
    "WrongLength",
    "enumerate_indices",
    "indices_above",
    "indices_below",
    "length",
    "make_index",
]


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


def _fmt_int(x: int) -> str:
    """x in full up to 20 digits; past that its first and last six digits and length.

    For error messages, which may name any k, n or entry a caller passes:
    the text stays short, and no more than 20 digits are ever converted.
    """
    if -(10**20) < x < 10**20:
        return str(x)
    sign, x = ("-", -x) if x < 0 else ("", x)
    # 2**(b-1) <= x < 2**b, so x has floor(b * log10(2)) digits or one more
    digits = int(x.bit_length() * 0.30102999566398120)
    if 10**digits <= x:
        digits += 1
    return f"{sign}{x // 10 ** (digits - 6)}...{x % 10**6:06d} ({digits} digits)"


def _fmt_ctx(ctx: "GrassCtx") -> str:
    """str(ctx) for error messages: G(k,n) with k and n as _fmt_int writes them."""
    return f"G({_fmt_int(ctx.k)},{_fmt_int(ctx.n)})"


def _require_type(name: str, value: object, cls: type) -> None:
    """Raise GrassError unless value is a cls, naming the argument and the type it got.

    Every refusal of a wrong-typed record argument goes through here, so
    every entry point follows one isinstance policy and none duck-types.
    """
    if not isinstance(value, cls):
        raise GrassError(f"{name} must be a {cls.__name__}, not {type(value).__name__}")


class _Record:
    """Base of every record class: frozen, slotted, compared by its fields.

    Each subclass is built by _record, which gives it a slot per field it
    declares and a constructor taking the fields by position or keyword.
    __match_args__ names the fields in order, inherited ones first.  ==
    holds between records of one class with equal fields, hash is the
    hash of the field tuple, and repr is ``Name(field=value, ...)``.
    Assigning or deleting any attribute raises AttributeError.  copy,
    deepcopy, pickle and __replace__ (copy.replace on 3.13+) rebuild a
    record through its validating constructor.
    """

    __slots__ = ()
    __match_args__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        items = ", ".join(f"{f}={v!r}" for f, v in zip(self.__match_args__, self._values()))
        return f"{type(self).__qualname__}({items})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __replace__(self, /, **changes: object) -> _Record:
        return type(self)(**dict(zip(self.__match_args__, self._values()), **changes))


def _record(cls: type) -> type:
    """cls, a _Record subclass, rebuilt with a slot for each field it declares.

    The fields are those of the record cls extends, then the names cls
    annotates, in order.  Only the names are read: every module here has
    ``from __future__ import annotations``, so no annotation is evaluated,
    deferred (3.14) or not.  Like namedtuple, the class gets an __init__
    compiled for its own fields: it sets each one through its slot
    descriptor, then calls __post_init__ where the class has one.
    _trusted, compiled from the same source, takes the same fields and
    builds the record through object.__new__ and those descriptors alone:
    no __post_init__ check, and no frozen __setattr__ in the way.  It is
    the one constructor for records derived from valid ones (core._index,
    core._richardson, diagrams._partition).  _values returns the field
    tuple.
    """
    own = tuple(cls.__annotations__)
    fields = cls.__match_args__ + own
    ns = dict(vars(cls))
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns.update(__slots__=own, __qualname__=cls.__qualname__, __match_args__=fields)
    new = type(cls.__name__, cls.__bases__, ns)
    args = ", ".join(fields)
    sets = "".join(f" _set_{f}(self, {f})\n" for f in fields)
    post = " self.__post_init__()\n" if hasattr(new, "__post_init__") else ""
    scope = {f"_set_{f}": getattr(new, f).__set__ for f in fields}
    scope.update(_cls=new, _new=object.__new__)
    exec(
        f"def __init__(self, {args}):\n{sets}{post}"
        f"def _trusted({args}):\n self = _new(_cls)\n{sets} return self\n"
        f"def _values(self):\n return ({''.join(f'self.{f}, ' for f in fields)})\n",
        scope,
    )
    for name in ("__init__", "_trusted", "_values"):
        scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
    new.__init__, new._values = scope["__init__"], scope["_values"]
    new._trusted = staticmethod(scope["_trusted"])
    return new


class _PairMemo:
    """One slot, not a record field, that memoizes the minimal pair of a context.

    criteria._minimal_pair fills _minimal the first time it reads a coprime
    context (through the slot descriptor: the frozen __setattr__ refuses
    it) and reads it back on every later call.  Every path to
    _minimal_pair passes criteria._require_coprime first, so a filled slot
    proves gcd(k, n) = 1: criteria.analyze reads it to skip that check and
    take its fused test on a pair of raw tuples.  The pair points back at
    its context, so the two form a cycle that the garbage collector frees
    once the caller drops the context: no global cache holds either.
    Equality, hashing, repr, copying, pickling and __replace__ see the
    fields only: a copy starts with an empty memo.
    """

    __slots__ = ("_minimal",)


@_record
class GrassCtx(_Record, _PairMemo):
    """The ambient pair (k, n) with 1 <= k < n."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if not (type(self.k) is int and type(self.n) is int):
            raise GrassError(f"k and n must be integers, got k={self.k!r} n={self.n!r}")
        if not 1 <= self.k < self.n:
            raise GrassError(
                f"need 1 <= k < n, got k={_fmt_int(self.k)} n={_fmt_int(self.n)}"
            )

    def coprime(self) -> bool:
        return math.gcd(self.k, self.n) == 1

    def __str__(self) -> str:
        return f"G({self.k},{self.n})"


def fmt_tuple(entries: Sequence[int]) -> str:
    """Render a tuple the way it is written on the command line: (1,3,5,7)."""
    return "(" + ",".join(str(e) for e in entries) + ")"


@_record
class GrassIndex(_Record):
    """A strictly increasing k-tuple in [1, n], tagged with its context.

    Comparisons between indices use the Bruhat (componentwise) order and
    raise ContextMismatch when the contexts differ; the order is partial,
    so ``not a <= b`` does not imply ``b <= a``.  ``a >= b`` is ``b <= a``
    (Python's reflected operator), and either operator raises TypeError
    when one side is not an index.

    Construction validates the entries: a tuple of ints (bools rejected),
    then length, range and strict increase; a ctx that is not a GrassCtx
    is refused too.  Indices the library derives from valid ones
    (enumeration, partitions, complements, hook removal) are built by
    _index, the class's generated _trusted constructor (see _record),
    which skips that check.
    """

    entries: tuple[int, ...]
    ctx: GrassCtx

    def __post_init__(self) -> None:
        entries, ctx = self.entries, self.ctx
        # Fast path: a valid index passes these C-level checks without a
        # Python loop (type() is exact, so a bool fails {int}).  Anything
        # else takes the checks below, which raise for the first failing one.
        if (
            type(entries) is tuple
            and isinstance(ctx, GrassCtx)
            and len(entries) == ctx.k
            and set(map(type, entries)) == {int}
            and 1 <= entries[0]
            and entries[-1] <= ctx.n
            and all(map(lt, entries, entries[1:]))
        ):
            return
        if type(self.entries) is not tuple:
            raise GrassError(f"entries must be a tuple, not {type(self.entries).__name__}")
        _require_type("ctx", ctx, GrassCtx)
        for pos, e in enumerate(self.entries, start=1):
            if type(e) is not int:
                raise GrassError(f"entry {e!r} at position {pos} is not an integer")
        k, n = self.ctx.k, self.ctx.n
        if len(self.entries) != k:
            raise WrongLength(
                f"expected {_fmt_int(k)} entries for {_fmt_ctx(self.ctx)}, "
                f"got {len(self.entries)}"
            )
        prev = 0
        for pos, e in enumerate(self.entries, start=1):
            if not 1 <= e <= n:
                raise OutOfRange(
                    f"entry {_fmt_int(e)} at position {pos} is outside [1, {_fmt_int(n)}]"
                )
            if e <= prev:
                raise NotStrictlyIncreasing(
                    f"entry {_fmt_int(e)} at position {pos} does not exceed {_fmt_int(prev)}"
                )
            prev = e

    def __le__(self, other: object) -> bool:
        if not isinstance(other, GrassIndex):
            return NotImplemented
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch(
                f"cannot compare {_fmt_ctx(self.ctx)} with {_fmt_ctx(other.ctx)}"
            )
        return all(map(le, self.entries, other.entries))

    def __str__(self) -> str:
        return fmt_tuple(self.entries)


_index = GrassIndex._trusted


def make_index(values: Sequence[int], ctx: GrassCtx) -> GrassIndex:
    """Validated constructor for I(k,n) elements.

    Raises GrassError for values that are not iterable or an entry that
    is not an int (bools included), then WrongLength, NotStrictlyIncreasing
    or OutOfRange, naming the first offending position.
    """
    try:
        entries = tuple(values)
    except TypeError:
        raise GrassError(f"values must be a sequence, not {type(values).__name__}") from None
    return GrassIndex(entries, ctx)


def enumerate_indices(ctx: GrassCtx) -> list[GrassIndex]:
    """All C(n,k) elements of I(k,n) in lexicographic order."""
    return [_index(c, ctx) for c in combinations(range(1, ctx.n + 1), ctx.k)]


def length(w: GrassIndex) -> int:
    """Dimension of the Schubert variety X(w): the box count of its diagram."""
    k = len(w.entries)
    return sum(w.entries) - k * (k + 1) // 2


@_record
class RichardsonId(_Record):
    """An ordered pair (v, w) with v <= w, naming the nonempty X^v_w."""

    v: GrassIndex
    w: GrassIndex

    def __post_init__(self) -> None:
        _require_type("v", self.v, GrassIndex)
        _require_type("w", self.w, GrassIndex)
        if self.v.ctx is not self.w.ctx and self.v.ctx != self.w.ctx:
            raise ContextMismatch(
                f"v is from {_fmt_ctx(self.v.ctx)} but w is from {_fmt_ctx(self.w.ctx)}"
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


_richardson = RichardsonId._trusted


def _interval(lo: tuple[int, ...], hi: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All strictly increasing a with lo_i <= a_i <= hi_i, in lexicographic order.

    lo and hi are strictly increasing with lo <= hi, so lo is the first
    tuple.  Each next one steps one list like an odometer: raise the last
    entry i below hi_i by one and reset every later entry to its least
    value max(a_{m-1} + 1, lo_m), which stays within hi_m as hi increases
    strictly.  Each tuple is built once, in time linear in k, and no
    recursion limits k.
    """
    a, k = list(lo), len(lo)
    out = [lo]
    while True:
        i = k - 1
        while i >= 0 and a[i] == hi[i]:
            i -= 1
        if i < 0:
            return out
        x = a[i] + 1
        a[i] = x
        for m in range(i + 1, k):
            x = max(x + 1, lo[m])
            a[m] = x
        out.append(tuple(a))


def indices_below(bound: GrassIndex) -> list[GrassIndex]:
    """All a in I(k,n) with a <= bound, in lexicographic order."""
    ctx = bound.ctx
    return [_index(p, ctx) for p in _interval(tuple(range(1, ctx.k + 1)), bound.entries)]


def indices_above(bound: GrassIndex) -> list[GrassIndex]:
    """All a in I(k,n) with a >= bound, in lexicographic order."""
    ctx = bound.ctx
    k, n = ctx.k, ctx.n
    return [_index(p, ctx) for p in _interval(bound.entries, tuple(range(n - k + 1, n + 1)))]
