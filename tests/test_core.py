import ast
import contextlib
import importlib
import io
import math
import re
from pathlib import Path

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
)
from richgit.core import _fmt_ctx, _fmt_int

from helpers import G49, all_small_ctxs, idx


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


class TestErrorNumbers:
    def test_full_up_to_twenty_digits(self):
        for x in (0, 7, -7, 10**19, 10**20 - 1, -(10**20) + 1):
            assert _fmt_int(x) == str(x)
        assert _fmt_ctx(G49) == str(G49) == "G(4,9)"
        assert _fmt_ctx(GrassCtx(3, 10**20 - 1)) == str(GrassCtx(3, 10**20 - 1))

    def test_abbreviated_past_twenty_digits(self):
        assert _fmt_int(10**20) == "100000...000000 (21 digits)"
        assert _fmt_int(-(10**20) - 7) == "-100000...000007 (21 digits)"
        # the first negative value abbreviated: the bound is strict on both sides
        assert _fmt_int(-(10**20)) == "-100000...000000 (21 digits)"
        assert _fmt_int(int("123456789" * 30)) == "123456...456789 (270 digits)"
        # past Python's 4,300-digit limit for str(int)
        assert _fmt_int(3 * 10**5000 + 42) == "300000...000042 (5001 digits)"

    def test_digit_count_is_exact_at_powers_of_ten(self):
        for d in range(21, 400):
            assert _fmt_int(10**d - 1).endswith(f"...999999 ({d} digits)"), d
            assert _fmt_int(10**d).endswith(f"...000000 ({d + 1} digits)"), d

    def test_messages_stay_bounded(self):
        big = 10**3000
        with pytest.raises(GrassError) as exc:
            GrassCtx(big, 5)
        assert str(exc.value) == "need 1 <= k < n, got k=100000...000000 (3001 digits) n=5"
        with pytest.raises(OutOfRange) as exc:
            make_index((1, big), GrassCtx(2, 5))
        assert str(exc.value) == "entry 100000...000000 (3001 digits) at position 2 is outside [1, 5]"
        with pytest.raises(ContextMismatch) as exc:
            idx((1, 2, 3, 4)) <= make_index((1,), GrassCtx(1, big))
        assert str(exc.value) == "cannot compare G(4,9) with G(1,100000...000000 (3001 digits))"


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
        # dim X^v_w = length(w) - length(v), as analyze reports it
        assert length(idx((1, 2, 3, 4))) == 0
        assert length(idx((6, 7, 8, 9))) == 20
        # box totals: 14 for (3,5,7,9), 6 for (1,3,5,7)
        assert length(idx((3, 5, 7, 9))) - length(idx((1, 3, 5, 7))) == 8

    def test_dim_nonnegative_zero_iff_point(self):
        for ctx in all_small_ctxs(7):
            elems = enumerate_indices(ctx)
            for v in elems:
                for w in elems:
                    if not v <= w:
                        continue
                    d = length(w) - length(v)
                    assert d >= 0
                    assert (d == 0) == (v == w)


class TestIntervals:
    def test_match_filtered_enumeration(self):
        for ctx in all_small_ctxs(6):
            elems = enumerate_indices(ctx)
            for bound in elems:
                assert indices_below(bound) == [a for a in elems if a <= bound]
                assert indices_above(bound) == [a for a in elems if a >= bound]

    def test_long_indices_need_no_recursion(self):
        # G(1200,1201): v_min = (1..1200) and w_min = (2..1201) bound one index each
        ctx = GrassCtx(1200, 1201)
        low, high = tuple(range(1, 1201)), tuple(range(2, 1202))
        assert [a.entries for a in indices_below(make_index(low, ctx))] == [low]
        assert [a.entries for a in indices_above(make_index(high, ctx))] == [high]


MODULES = ("core", "criteria", "diagrams", "oracle", "singular")


class TestPublicSurface:
    def test_all_joins_the_module_lists(self):
        tree = ast.parse(Path(richgit.__file__).read_text(encoding="utf-8"))
        imports = [
            (node.level, node.module, [alias.name for alias in node.names])
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports == [(1, name, ["*"]) for name in MODULES]
        modules = [importlib.import_module(f"richgit.{name}") for name in MODULES]
        joined = [name for module in modules for name in module.__all__]
        assert richgit.__all__ == joined
        assert len(joined) == len(set(joined))
        for module in modules:
            for name in module.__all__:
                obj = getattr(richgit, name)
                assert obj is getattr(module, name), name
                if callable(obj):
                    assert obj.__module__ == module.__name__, name

    def test_all_is_the_reviewed_surface(self):
        # the 44 names of the last export review (ROADMAP item 7); adding or
        # dropping an export is a change to this list
        reviewed = {
            # core
            "ContextMismatch", "EmptyRichardson", "GrassCtx", "GrassError", "GrassIndex",
            "NotStrictlyIncreasing", "OutOfRange", "RichardsonId", "WrongLength",
            "enumerate_indices", "indices_above", "indices_below", "length", "make_index",
            # criteria
            "EMPTY_QUOTIENT", "SINGULAR", "SMOOTH", "AnalysisReport", "ComponentReport",
            "MinimalPair", "NotCoprime", "analyze", "has_semistable", "minimal_pair",
            # diagrams
            "BoxedPartition", "complement_index", "from_partition", "render_skew",
            "to_partition",
            # oracle
            "CensusReport", "ExampleCheck", "OracleMismatch", "PatternMismatch",
            "VerifyReport", "census", "default_contexts", "oracle_sweep", "verify",
            # singular
            "OPPOSITE_SIDE", "SCHUBERT_SIDE", "SingularComponent",
            "opposite_singular_components", "richardson_singular_components",
            "schubert_singular_components",
        }
        assert len(reviewed) == 44
        assert sorted(richgit.__all__) == sorted(reviewed)

    def test_readme_library_snippet(self):
        # each print's output is the first token of its trailing comment
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("## Library use", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        expected = [
            line.split("#", 1)[1].split()[0]
            for line in code.splitlines()
            if line.startswith("print(")
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(code, {})
        assert expected == ["(3,5,7,9)", "SMOOTH", "169"]
        assert out.getvalue().splitlines() == expected
