"""Validation at the boundary, trust inside.

Values enter the library through make_index, the direct GrassIndex /
RichardsonId / BoxedPartition constructors, the CLI, and analyze on raw
sequences or on prebuilt indices of its context; each of those checks
its input.  Everything the library derives from a checked value is built
without a second check, so every derived value must be one that the
checks accept.  Both halves are pinned here.
"""

from collections import namedtuple
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from richgit import (
    BoxedPartition,
    ContextMismatch,
    GrassCtx,
    GrassError,
    GrassIndex,
    NotStrictlyIncreasing,
    OutOfRange,
    RichardsonId,
    WrongLength,
    analyze,
    census,
    complement_index,
    enumerate_indices,
    from_partition,
    has_semistable,
    indices_above,
    indices_below,
    length,
    make_index,
    minimal_pair,
    opposite_singular_components,
    oracle_sweep,
    render_skew,
    richardson_singular_components,
    schubert_singular_components,
    to_partition,
    verify,
)
from richgit.oracle import _hook_oracle_entries

G25 = GrassCtx(2, 5)


class DuckCtx(namedtuple("DuckCtx", "k n")):
    """Has everything a GrassCtx is read for, but is not one."""

    def coprime(self):
        return gcd(self.k, self.n) == 1


DUCK = DuckCtx(2, 5)
NOT_A_CTX = "ctx must be a GrassCtx, not DuckCtx"


class TestBoundaryChecks:
    @pytest.mark.parametrize(
        "values, ctx, target",
        [
            # another k: tuple compares against the minimal pair would overrun
            (((1, 2), (3, 5)), G25, GrassCtx(3, 7)),
            # same k, another n: tuple compares would run without any error
            (((1, 2), (3, 5)), G25, GrassCtx(2, 7)),
            # and here they would even call the pair admissible in G(2,7)
            (((1, 2), (4, 7)), GrassCtx(2, 9), GrassCtx(2, 7)),
        ],
    )
    def test_analyze_rejects_prebuilt_indices_of_another_context(
        self, values, ctx, target
    ):
        v, w = (make_index(x, ctx) for x in values)
        with pytest.raises(ContextMismatch):
            analyze(v, w, target)

    def test_analyze_rejects_one_foreign_prebuilt_index(self):
        with pytest.raises(ContextMismatch):
            analyze(make_index((1, 2), G25), (4, 7), GrassCtx(2, 7))
        with pytest.raises(ContextMismatch):
            analyze((1, 2), make_index((3, 5), G25), GrassCtx(2, 7))

    def test_equal_but_distinct_contexts_compare_normally(self):
        ctxs = [GrassCtx(4, 9) for _ in range(3)]
        assert ctxs[0] is not ctxs[1] and ctxs[0] == ctxs[1]
        v = make_index((1, 3, 4, 6), ctxs[0])
        w = make_index((5, 7, 8, 9), ctxs[1])
        assert v <= w and not w <= v
        prebuilt = analyze(v, w, ctxs[2]).to_dict()
        assert prebuilt == analyze((1, 3, 4, 6), (5, 7, 8, 9), GrassCtx(4, 9)).to_dict()
        assert prebuilt["verdict"] == "SINGULAR"

    @pytest.mark.parametrize(
        "build, error",
        [
            (lambda: GrassIndex((1, 2, 3), G25), WrongLength),
            (lambda: GrassIndex((2, 2), G25), NotStrictlyIncreasing),
            (lambda: GrassIndex((0, 2), G25), OutOfRange),
            (lambda: GrassIndex((1, 6), G25), OutOfRange),
            (lambda: BoxedPartition((0,), G25), GrassError),
            # explicit ids, so the generated ids of the other cases stay as they were
            pytest.param(lambda: GrassIndex((1.5, 3), G25), GrassError, id="float-entry"),
            pytest.param(lambda: GrassIndex((True, 3), G25), GrassError, id="bool-entry"),
            pytest.param(lambda: GrassIndex([1, 3], G25), GrassError, id="list-entries"),
            pytest.param(
                lambda: BoxedPartition((0.5, 1), G25), GrassError, id="float-part"
            ),
            pytest.param(lambda: BoxedPartition([0, 1], G25), GrassError, id="list-parts"),
            # arguments of the wrong type, which once raised AttributeError
            pytest.param(lambda: GrassIndex((1, 3), (2, 5)), GrassError, id="tuple-ctx"),
            pytest.param(lambda: make_index((1, 3), (2, 5)), GrassError, id="make-tuple-ctx"),
            pytest.param(
                lambda: BoxedPartition((0, 1), (2, 5)), GrassError, id="partition-tuple-ctx"
            ),
            pytest.param(lambda: RichardsonId((1, 3), (2, 4)), GrassError, id="tuple-pair"),
            pytest.param(lambda: make_index((1, 3), G25) <= (2, 4), TypeError, id="le-tuple"),
            pytest.param(lambda: make_index((1, 3), G25) >= (2, 4), TypeError, id="ge-tuple"),
            (
                lambda: RichardsonId(
                    make_index((1, 2), G25), make_index((3, 5), GrassCtx(2, 7))
                ),
                ContextMismatch,
            ),
            (
                lambda: has_semistable(
                    RichardsonId(make_index((1, 2), G25), make_index((3, 5), G25)),
                    minimal_pair(GrassCtx(2, 7)),
                ),
                ContextMismatch,
            ),
        ],
    )
    def test_public_constructors_still_validate(self, build, error):
        # the remaining boundary checks are pinned in test_core/test_diagrams/test_cli
        with pytest.raises(error):
            build()

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: GrassIndex((1, 3), None), "ctx must be a GrassCtx, not NoneType"),
            (lambda: BoxedPartition((0, 1), "G(2,5)"), "ctx must be a GrassCtx, not str"),
            (
                lambda: RichardsonId(None, make_index((2, 4), G25)),
                "v must be a GrassIndex, not NoneType",
            ),
            (
                lambda: RichardsonId(make_index((1, 3), G25), [2, 4]),
                "w must be a GrassIndex, not list",
            ),
            # these once leaked AttributeError or TypeError
            (lambda: analyze((1, 3), (3, 5), (2, 5)), "ctx must be a GrassCtx, not tuple"),
            (lambda: census((2, 5)), "ctx must be a GrassCtx, not tuple"),
            (lambda: minimal_pair((2, 5)), "ctx must be a GrassCtx, not tuple"),
            (lambda: verify([(2, 5)]), "ctx must be a GrassCtx, not tuple"),
            (lambda: make_index(5, G25), "values must be a sequence, not int"),
            (lambda: analyze(5, (3, 5), G25), "values must be a sequence, not int"),
            (
                lambda: has_semistable((1, 3), minimal_pair(G25)),
                "rid must be a RichardsonId, not tuple",
            ),
            (
                lambda: has_semistable(
                    RichardsonId(make_index((1, 2), G25), make_index((3, 5), G25)), (2, 5)
                ),
                "mp must be a MinimalPair, not tuple",
            ),
            (lambda: schubert_singular_components((3, 5)), "w must be a GrassIndex, not tuple"),
            (lambda: opposite_singular_components((1, 3)), "v must be a GrassIndex, not tuple"),
            (
                lambda: richardson_singular_components(((1, 3), (3, 5))),
                "rid must be a RichardsonId, not tuple",
            ),
            (lambda: complement_index((1, 3)), "v must be a GrassIndex, not tuple"),
            # an unhashable ctx once failed inside minimal_pair's cache
            (lambda: minimal_pair([2, 5]), "ctx must be a GrassCtx, not list"),
            # a duck-typed context once passed every entry point but BoxedPartition
            (lambda: GrassIndex((1, 3), DUCK), NOT_A_CTX),
            (lambda: make_index((1, 3), DUCK), NOT_A_CTX),
            (lambda: analyze((1, 3), (3, 5), DUCK), NOT_A_CTX),
            (lambda: minimal_pair(DUCK), NOT_A_CTX),
            (lambda: census(DUCK), NOT_A_CTX),
            (lambda: verify([DUCK]), NOT_A_CTX),
            # a generator was once used up by verify's checks before any census
            (lambda: verify(c for c in [DUCK]), NOT_A_CTX),
            (lambda: verify(G25), "ctxs must be an iterable, not GrassCtx"),
            # these once read an attribute of the argument and raised AttributeError
            (lambda: enumerate_indices((2, 5)), "ctx must be a GrassCtx, not tuple"),
            (lambda: indices_below((1, 3)), "bound must be a GrassIndex, not tuple"),
            (lambda: indices_above((3, 5)), "bound must be a GrassIndex, not tuple"),
            (lambda: length((3, 5)), "w must be a GrassIndex, not tuple"),
            (lambda: to_partition((3, 5)), "w must be a GrassIndex, not tuple"),
            (lambda: from_partition((1, 2)), "p must be a BoxedPartition, not tuple"),
            (
                lambda: render_skew((make_index((1, 3), G25), make_index((3, 5), G25))),
                "rid must be a RichardsonId, not tuple",
            ),
            (lambda: oracle_sweep(DUCK), NOT_A_CTX),
        ],
        ids=["index-ctx", "partition-ctx", "pair-v", "pair-w", "analyze-ctx", "census-ctx",
             "minimal-pair-ctx", "verify-ctx", "make-index-values", "analyze-v",
             "has-semistable-rid", "has-semistable-mp", "schubert-components-w",
             "opposite-components-v", "richardson-components-rid", "complement-index-v",
             "minimal-pair-list-ctx",
             "index-duck-ctx", "make-index-duck-ctx", "analyze-duck-ctx",
             "minimal-pair-duck-ctx", "census-duck-ctx", "verify-duck-ctx",
             "verify-generator-duck-ctx", "verify-one-ctx",
             "enumerate-indices-ctx", "indices-below-bound", "indices-above-bound",
             "length-w", "to-partition-w", "from-partition-p", "render-skew-rid",
             "oracle-sweep-duck-ctx"],
    )
    def test_wrong_types_are_named(self, build, message):
        with pytest.raises(GrassError) as exc:
            build()
        assert str(exc.value) == message

    def test_verify_reads_a_generator_once(self):
        # the checks once used up a generator, leaving no census and passed=True
        ctxs = [GrassCtx(2, 5), GrassCtx(3, 8)]
        rep = verify(c for c in ctxs)
        assert rep.to_dict() == verify(ctxs).to_dict()
        assert len(rep.censuses) == 2 and not rep.passed


def check_index(x, ctx):
    assert make_index(x.entries, ctx) == x


def check_partition(p, ctx):
    assert type(p.parts) is tuple
    assert BoxedPartition(p.parts, ctx) == p


def check_pair(r, ctx):
    check_index(r.v, ctx)
    check_index(r.w, ctx)
    assert RichardsonId(r.v, r.w) == r


def check_derived(w):
    """Every value the library derives from one index passes validation."""
    ctx = w.ctx
    check_index(complement_index(w), ctx)
    p = to_partition(w)
    check_partition(p, ctx)
    assert from_partition(p) == w
    for c in schubert_singular_components(w):
        check_index(c, ctx)
        check_partition(to_partition(c), ctx)
    for c in opposite_singular_components(w):
        check_index(c, ctx)


def check_pair_components(v, w):
    for comp in richardson_singular_components(RichardsonId(v, w)):
        check_pair(comp.pair, v.ctx)


class TestTrustedConstruction:
    def test_exhaustive_small(self):
        for n in range(2, 11):
            for k in range(1, n):
                ctx = GrassCtx(k, n)
                for w in enumerate_indices(ctx):
                    check_index(w, ctx)
                    check_derived(w)
                if gcd(k, n) == 1:
                    mp = minimal_pair(ctx)
                    for bound in (mp.v_min, mp.w_min):
                        for x in indices_below(bound) + indices_above(bound):
                            check_index(x, ctx)
                    if n <= 8:
                        elems = enumerate_indices(ctx)
                        for v in elems:
                            for w in elems:
                                if v <= w:
                                    check_pair_components(v, w)


@st.composite
def index_pairs(draw, max_n=30):
    """Two indices (v, w) with v <= w in a random G(k, n), n <= max_n."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    ctx = GrassCtx(k, n)
    a = sorted(draw(st.permutations(range(1, n + 1)))[:k])
    b = sorted(draw(st.permutations(range(1, n + 1)))[:k])
    return (
        make_index(tuple(map(min, a, b)), ctx),
        make_index(tuple(map(max, a, b)), ctx),
    )


PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None
)


class TestTrustedConstructionRandom:
    @PROPERTY_SETTINGS
    @given(index_pairs())
    def test_derived_values_validate(self, pair):
        v, w = pair
        check_derived(v)
        check_derived(w)
        check_pair_components(v, w)

    @PROPERTY_SETTINGS
    @given(index_pairs())
    def test_hook_removal_matches_cell_set_oracle(self, pair):
        for x in pair:
            formula = {c.entries for c in schubert_singular_components(x)}
            assert formula == _hook_oracle_entries(x.entries)


def reference_validate(entries, ctx):
    """GrassIndex's entry checks as plain loops, the reference for its fast path."""
    if type(entries) is not tuple:
        raise GrassError(f"entries must be a tuple, not {type(entries).__name__}")
    for pos, e in enumerate(entries, start=1):
        if type(e) is not int:
            raise GrassError(f"entry {e!r} at position {pos} is not an integer")
    k, n = ctx.k, ctx.n
    if len(entries) != k:
        raise WrongLength(f"expected {k} entries for {ctx}, got {len(entries)}")
    prev = 0
    for pos, e in enumerate(entries, start=1):
        if not 1 <= e <= n:
            raise OutOfRange(f"entry {e} at position {pos} is outside [1, {n}]")
        if e <= prev:
            raise NotStrictlyIncreasing(
                f"entry {e} at position {pos} does not exceed {prev}"
            )
        prev = e


def outcome(check, entries, ctx):
    """None when check accepts, else the class and message it raises."""
    try:
        check(entries, ctx)
    except GrassError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def raw_entries(draw):
    """(entries, k, n) for k < n <= 12: a tuple or list of ints, bools and
    floats of any length and order, often k ints near [1, n]."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n - 1))
    item = st.one_of(
        st.integers(-1, n + 2), st.booleans(), st.floats(-1, n + 2), st.floats()
    )
    near = st.integers(0, n + 1)
    values = draw(
        st.one_of(
            st.lists(item, max_size=k + 2),
            st.lists(near, min_size=k, max_size=k),
            st.sets(near, min_size=k - 1, max_size=k + 1).map(sorted),
        )
    )
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(item)
    return draw(st.sampled_from([tuple, list]))(values), k, n


class TestFastValidation:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(raw_entries())
    @example(((True, 3), 2, 5))
    @example(((1, 6), 2, 5))
    @example(((1.0, 3), 2, 5))
    @example(([1, 3], 2, 5))
    def test_matches_the_reference_checks(self, case):
        entries, k, n = case
        ctx = GrassCtx(k, n)
        assert outcome(GrassIndex, entries, ctx) == outcome(reference_validate, entries, ctx)

    def test_accepts_exactly_the_k_subsets(self):
        for n in range(2, 11):
            ctxs = [GrassCtx(k, n) for k in range(1, n)]
            for size in range(n + 1):
                for entries in combinations(range(1, n + 1), size):
                    for ctx in ctxs:
                        got = outcome(GrassIndex, entries, ctx)
                        if size == ctx.k:
                            assert got is None, (entries, ctx)
                        else:
                            assert got == outcome(reference_validate, entries, ctx)
