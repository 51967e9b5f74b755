import ast
import math

import pytest

import richgit
from richgit import (
    ContextMismatch,
    EmptyRichardson,
    GrassCtx,
    GrassError,
    NotStrictlyIncreasing,
    OutOfRange,
    RichardsonId,
    WrongLength,
    enumerate_indices,
    indices_above,
    indices_below,
    length,
    make_index,
    richardson_dim,
)

G49 = GrassCtx(4, 9)


def idx(values, ctx=G49):
    return make_index(values, ctx)


def all_small_ctxs(max_n):
    return [GrassCtx(k, n) for n in range(2, max_n + 1) for k in range(1, n)]


class TestGrassCtx:
    def test_bounds_enforced(self):
        with pytest.raises(GrassError):
            GrassCtx(0, 5)
        with pytest.raises(GrassError):
            GrassCtx(5, 5)
        with pytest.raises(GrassError):
            GrassCtx(6, 5)

    def test_bool_rejected(self):
        with pytest.raises(GrassError, match="must be integers"):
            GrassCtx(True, 3)
        with pytest.raises(GrassError, match="must be integers"):
            GrassCtx(1, True)

    def test_coprime(self):
        assert GrassCtx(4, 9).coprime()
        assert not GrassCtx(4, 6).coprime()


class TestMakeIndex:
    def test_valid(self):
        assert idx((3, 5, 7, 9)).entries == (3, 5, 7, 9)

    def test_minimum(self):
        for ctx in all_small_ctxs(6):
            assert make_index(range(1, ctx.k + 1), ctx).entries == tuple(
                range(1, ctx.k + 1)
            )

    def test_not_strictly_increasing_names_position(self):
        with pytest.raises(NotStrictlyIncreasing, match="position 3"):
            idx((3, 5, 5, 9))

    def test_wrong_length(self):
        with pytest.raises(WrongLength):
            idx((3, 5, 7))

    def test_out_of_range_names_first_position(self):
        with pytest.raises(OutOfRange, match="position 4"):
            idx((3, 5, 7, 10))
        with pytest.raises(OutOfRange, match="position 1"):
            idx((0, 5, 7, 9))

    def test_first_offending_position_wins(self):
        # the repeat at position 3 precedes the range violation at position 4
        with pytest.raises(NotStrictlyIncreasing, match="position 3"):
            idx((3, 5, 5, 99))

    def test_float_entry_names_position(self):
        # 1.5 passes every range and order check, so only the type check stops it
        with pytest.raises(GrassError, match="position 1"):
            make_index((1.5, 3), GrassCtx(2, 5))
        with pytest.raises(GrassError, match="position 2"):
            idx((3, 5.0, 7, 9))

    def test_bool_entry_names_position(self):
        with pytest.raises(GrassError, match="position 1"):
            make_index((True, 3), GrassCtx(2, 5))


class TestEnumerate:
    def test_singletons(self):
        ctx = GrassCtx(1, 3)
        assert [i.entries for i in enumerate_indices(ctx)] == [(1,), (2,), (3,)]

    def test_two_subsets(self):
        ctx = GrassCtx(2, 3)
        assert [i.entries for i in enumerate_indices(ctx)] == [(1, 2), (1, 3), (2, 3)]

    def test_count_is_binomial(self):
        # independent count: math.comb
        for ctx in all_small_ctxs(9):
            assert len(enumerate_indices(ctx)) == math.comb(ctx.n, ctx.k)

    def test_lexicographic_no_duplicates(self):
        for ctx in all_small_ctxs(7):
            seq = [i.entries for i in enumerate_indices(ctx)]
            assert seq == sorted(set(seq))


class TestBruhatOrder:
    def test_reference_pairs(self):
        assert idx((1, 3, 5, 7)) <= idx((3, 5, 7, 9))
        assert not idx((2, 4, 5, 7)) <= idx((2, 3, 7, 9))

    def test_reflexive(self):
        a = idx((2, 4, 5, 7))
        assert a <= a

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            make_index((1, 2), GrassCtx(2, 5)) <= make_index((1, 2), GrassCtx(2, 6))

    def test_partial_order_axioms_exhaustive(self):
        # reflexivity, antisymmetry, transitivity over every context with n <= 9
        for ctx in all_small_ctxs(9):
            elems = enumerate_indices(ctx)
            ups = {a: frozenset(b for b in elems if a <= b) for a in elems}
            for a in elems:
                assert a in ups[a]  # reflexive
                for b in ups[a]:
                    if a in ups[b]:
                        assert a == b  # antisymmetric
                    assert ups[b] <= ups[a]  # transitive

    def test_global_bounds(self):
        for ctx in all_small_ctxs(9):
            bottom = make_index(range(1, ctx.k + 1), ctx)
            top = make_index(range(ctx.n - ctx.k + 1, ctx.n + 1), ctx)
            for a in enumerate_indices(ctx):
                assert bottom <= a <= top


class TestLength:
    def test_empty_diagram(self):
        assert length(make_index((1, 2, 3), GrassCtx(3, 7))) == 0

    def test_hand_counted(self):
        assert length(idx((3, 5, 7, 9))) == 14

    def test_full_rectangle(self):
        assert length(idx((6, 7, 8, 9))) == 20


class TestRichardson:
    def test_nonempty_examples(self):
        assert idx((2, 4, 5, 7)) <= idx((3, 5, 7, 9))
        assert not idx((4, 5, 6, 7)) <= idx((3, 5, 7, 9))
        v = idx((1, 3, 5, 7))
        assert v <= v

    def test_empty_pair_rejected(self):
        with pytest.raises(EmptyRichardson):
            RichardsonId(idx((4, 5, 6, 7)), idx((3, 5, 7, 9)))

    def test_dim_examples(self):
        assert richardson_dim(RichardsonId(idx((1, 2, 3, 4)), idx((1, 2, 3, 4)))) == 0
        assert richardson_dim(RichardsonId(idx((1, 2, 3, 4)), idx((6, 7, 8, 9)))) == 20
        # box totals: 14 for (3,5,7,9), 6 for (1,3,5,7)
        assert richardson_dim(RichardsonId(idx((1, 3, 5, 7)), idx((3, 5, 7, 9)))) == 8

    def test_dim_nonnegative_zero_iff_point(self):
        for ctx in all_small_ctxs(7):
            elems = enumerate_indices(ctx)
            for v in elems:
                for w in elems:
                    if not v <= w:
                        continue
                    d = richardson_dim(RichardsonId(v, w))
                    assert d >= 0
                    assert (d == 0) == (v == w)


class TestIntervals:
    def test_match_filtered_enumeration(self):
        for ctx in all_small_ctxs(6):
            elems = enumerate_indices(ctx)
            for bound in elems:
                assert indices_below(bound) == [a for a in elems if a <= bound]
                assert indices_above(bound) == [a for a in elems if a >= bound]


class TestPublicSurface:
    def test_all_matches_imports(self):
        exported = richgit.__all__
        assert len(exported) == len(set(exported))
        for name in exported:
            assert hasattr(richgit, name), name
        tree = ast.parse(open(richgit.__file__, encoding="utf-8").read())
        imported = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        public = {name for name in imported if not name.startswith("_")}
        assert public - set(exported) == set()
