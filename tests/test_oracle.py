import json
import re
import time
from itertools import accumulate
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richgit import (
    GrassCtx,
    GrassError,
    GrassIndex,
    NotCoprime,
    census,
    default_contexts,
    enumerate_indices,
    indices_above,
    indices_below,
    make_index,
    minimal_pair,
    oracle_sweep,
    schubert_singular_components,
    verify,
)
import richgit.criteria
import richgit.oracle
from richgit.cli import _census_csv, main, to_json
from richgit.oracle import (
    MAX_PAIRS,
    MAX_SIDE_CELLS,
    _check_census,
    _hook_oracle_entries,
)

from helpers import G49, assert_same_text, coprime_ctxs, idx, per_pair_census


def refuse(*args):
    raise AssertionError("a census started before every check passed")


def _count_below(bound):
    """Number of strictly increasing tuples a with 1 <= a_i <= bound_i.

    A DP over positions, independent of the closed form: ways[x] counts
    the prefixes ending in entry x, with ways[0] = 1 for the empty prefix.
    """
    ways = [1]
    for b in bound:
        ways = [0, *accumulate(ways + [0] * (b - len(ways)))]
    return sum(ways)


def side_size(ctx):
    """Bizley's rational Catalan number C(n,k)/n."""
    return comb(ctx.n, ctx.k) // ctx.n


def reference_hook_oracle(w):
    """The cell-set oracle as explicit sets of (row, column) cells, as entry tuples.

    Valleys are detected cell by cell; the hook through a valley at
    (row j, column c) is the column of cells below it plus the tail of
    row j from column c rightwards, and removing it yields one component.
    """
    ctx = w.ctx
    width = ctx.n - ctx.k
    cells = {
        (i, c)
        for i, e in enumerate(w.entries, start=1)
        for c in range(1, e - i + 1)
    }
    valleys = sorted(
        (i, c)
        for (i, c) in cells
        if (i - 1, c) in cells and (i, c + 1) in cells and (i - 1, c + 1) not in cells
    )
    out = set()
    for j, c in valleys:
        hook = {(t, c) for t in range(1, j) if (t, c) in cells}
        hook |= {(j, cc) for cc in range(c, width + 1) if (j, cc) in cells}
        rest = cells - hook
        rows = [0] * ctx.k
        for i, _ in rest:
            rows[i - 1] += 1
        out.add(tuple(r + i for i, r in enumerate(rows, start=1)))
    return out


@st.composite
def indices(draw, max_n=30):
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, n - 1))
    entries = draw(st.permutations(range(1, n + 1)))[:k]
    return make_index(tuple(sorted(entries)), GrassCtx(k, n))


class TestRowBitmaskOracle:
    def test_matches_the_cell_set_reference_up_to_12(self):
        checked = 0
        for n in range(2, 13):
            for k in range(1, n):
                for w in enumerate_indices(GrassCtx(k, n)):
                    assert _hook_oracle_entries(w.entries) == reference_hook_oracle(w), w
                    checked += 1
        assert checked == sum(2**n - 2 for n in range(2, 13))

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(indices())
    def test_matches_the_cell_set_reference_up_to_30(self, w):
        assert _hook_oracle_entries(w.entries) == reference_hook_oracle(w)


class TestHookOracle:
    def test_matches_formula_on_reference(self):
        w = idx((3, 5, 7, 9))
        formula = {c.entries for c in schubert_singular_components(w)}
        assert _hook_oracle_entries(w.entries) == formula == {
            (2, 3, 7, 9),
            (3, 4, 5, 9),
            (3, 5, 6, 7),
        }

    def test_rectangle(self):
        assert _hook_oracle_entries((1, 2, 8, 9)) == set()

    def test_two_component_case(self):
        assert _hook_oracle_entries((3, 6, 8, 9)) == {
            (2, 3, 8, 9),
            (3, 5, 6, 9),
        }

    def test_sweep_clean_up_to_nine(self):
        for ctx in [
            GrassCtx(k, n) for n in range(2, 10) for k in range(1, n)
        ]:
            assert oracle_sweep(ctx) == ()


def fake_oracle(monkeypatch, replacement=None):
    """Make the tuple oracle lose (3,4,5,9) from w = (3,5,7,9), or swap in replacement."""
    real = richgit.oracle._hook_oracle_entries

    def oracle(e):
        out = real(e)
        if e == (3, 5, 7, 9):
            out.discard((3, 4, 5, 9))
            if replacement:
                out.add(replacement)
        return out

    monkeypatch.setattr(richgit.oracle, "_hook_oracle_entries", oracle)


FORMULA = [[2, 3, 7, 9], [3, 4, 5, 9], [3, 5, 6, 7]]
DROPPED = [[2, 3, 7, 9], [3, 5, 6, 7]]


class TestOracleSweep:
    @pytest.mark.parametrize(
        "replacement, oracle",
        [(None, DROPPED), ((3, 4, 5, 8), [[2, 3, 7, 9], [3, 4, 5, 8], [3, 5, 6, 7]])],
        ids=["dropped", "swapped"],
    )
    def test_one_mismatch_is_reported_with_validated_indices(
        self, monkeypatch, replacement, oracle
    ):
        fake_oracle(monkeypatch, replacement)
        validations = []
        validate = GrassIndex.__post_init__

        def counting(self):
            validations.append(list(self.entries))
            validate(self)

        monkeypatch.setattr(GrassIndex, "__post_init__", counting)
        (m,) = oracle_sweep(G49)
        # only the mismatch's own indices are built, all through validation
        assert sorted(validations) == sorted([[3, 5, 7, 9]] + FORMULA + oracle)
        assert m.w == idx((3, 5, 7, 9))
        assert m.formula == tuple(idx(c) for c in FORMULA)
        assert m.oracle == tuple(idx(c) for c in oracle)
        assert all(type(x) is GrassIndex and x.ctx == G49 for x in (m.w, *m.formula, *m.oracle))
        assert m.to_dict() == {"w": [3, 5, 7, 9], "formula": FORMULA, "oracle": oracle}

    def test_mismatch_reaches_census_verify_and_the_cli(self, monkeypatch, capsys):
        fake_oracle(monkeypatch)
        expected = {"w": [3, 5, 7, 9], "formula": FORMULA, "oracle": DROPPED}
        rep = census(G49)
        assert [m.to_dict() for m in rep.oracle_mismatches] == [expected]
        assert rep.mismatches == ()
        report = verify([G49])
        assert report.passed is False
        assert report.oracle_mismatch_total == 1
        assert main(["verify", "--ctx", "4,9"]) == 1
        out = capsys.readouterr().out
        assert "G(4,9): pairs=196 smooth=169 singular=27 [0 pattern / 1 oracle mismatch(es)]\n" in out
        assert out.endswith("passed: false\n")
        assert main(["verify", "--ctx", "4,9", "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["contexts"][0]["oracle_mismatches"] == [expected]
        assert data["oracle_mismatch_total"] == 1

    def test_tuple_oracle_runs_once_per_index(self, monkeypatch):
        real = richgit.oracle._hook_oracle_entries
        calls = []

        def counting(e):
            calls.append(e)
            return real(e)

        monkeypatch.setattr(richgit.oracle, "_hook_oracle_entries", counting)
        for n in range(2, 13):
            for k in range(1, n):
                calls.clear()
                assert oracle_sweep(GrassCtx(k, n)) == ()
                assert len(calls) == len(set(calls)) == comb(n, k), (k, n)
                assert all(len(e) == k and e[-1] <= n for e in calls)
        # a census runs the oracle on its side indices w >= w_min only, each
        # once and in order: s = C(n,k)/n per context, 431 for n <= 12
        calls.clear()
        assert verify().oracle_mismatch_total == 0
        assert calls == [
            w.entries for c in default_contexts() for w in indices_above(minimal_pair(c).w_min)
        ]
        assert len(calls) == sum(side_size(c) for c in default_contexts()) == 431


def break_upper_clause(monkeypatch):
    monkeypatch.setattr(richgit.criteria, "_upper_clause", lambda b, a: True)


def flip_exact_flag(monkeypatch):
    real = richgit.criteria._lower_clauses

    def flipped(c, v_min, a):
        exact, shortcut = real(c, v_min, a)
        return not exact, shortcut

    monkeypatch.setattr(richgit.criteria, "_lower_clauses", flipped)


def flag_w_min(monkeypatch):
    # A(w_min) holds; the fake oracle gives X(w_min) a component >= w_min
    real = richgit.oracle._hook_oracle_entries

    def oracle(e):
        out = real(e)
        if e == (3, 5, 7, 9):
            out.add((3, 5, 7, 9))
        return out

    monkeypatch.setattr(richgit.oracle, "_hook_oracle_entries", oracle)


def failure(clause, index, holds):
    return {"clause": clause, "index": list(index), "holds": holds}


class TestSideCheck:
    def test_patch_targets_are_what_census_calls(self, monkeypatch):
        # the refuse-before-work tests patch these two names; each must be live
        for name in ("analyze", "_side_check"):
            with monkeypatch.context() as m:
                m.setattr(richgit.oracle, name, refuse)
                with pytest.raises(AssertionError, match="before every check passed"):
                    census(G49)

    @pytest.mark.parametrize(
        "breakage, expected",
        [
            (break_upper_clause, [failure("A", (5, 7, 8, 9), True)]),
            (
                flip_exact_flag,
                # B(v_min) flips too, so analyze(v_min, w) says SINGULAR for every w
                [failure("A", w.entries, False) for w in indices_above(idx((3, 5, 7, 9)))
                 if w.entries != (5, 7, 8, 9)]
                + [failure("B", v.entries, v.entries == (1, 2, 3, 5))
                   for v in indices_below(idx((1, 3, 5, 7)))],
            ),
            (flag_w_min, [failure("A", (3, 5, 7, 9), True), failure("B", (1, 3, 5, 7), True)]),
        ],
        ids=["upper-clause-true", "exact-flag-flipped", "oracle-flags-w_min"],
    )
    def test_a_broken_clause_or_oracle_fails_verify(self, monkeypatch, capsys, breakage, expected):
        breakage(monkeypatch)
        assert [f.to_dict() for f in census(G49).consistency_failures] == expected
        assert verify([G49]).passed is False
        assert main(["verify", "--ctx", "4,9"]) == 1
        assert f", {len(expected)} consistency failure(s)]\n" in capsys.readouterr().out
        assert main(["verify", "--ctx", "4,9", "--format", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["contexts"][0]["consistency_failures"] == expected
        assert data["passed"] is False
        assert main(["census", "-k", "4", "-n", "9"]) == 0
        assert f"\n  consistency failures: {len(expected)}\n" in capsys.readouterr().out


class TestCensus:
    def test_smallest_context(self):
        rep = census(GrassCtx(2, 3))
        assert rep.total_pairs == 1
        assert rep.smooth_count == 1
        assert rep.singular_count == 0
        assert rep.mismatches == ()

    def test_reference_context_clean(self):
        rep = census(G49)
        assert rep.mismatches == ()
        assert rep.oracle_mismatches == ()
        assert rep.smooth_count + rep.singular_count == rep.total_pairs

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            census(GrassCtx(4, 6))

    def test_totals_are_interval_products(self):
        for ctx in (GrassCtx(2, 5), GrassCtx(3, 5), GrassCtx(3, 8), G49):
            mp = minimal_pair(ctx)
            elems = enumerate_indices(ctx)
            below = [a for a in elems if a <= mp.v_min]
            above = [a for a in elems if mp.w_min <= a]
            assert indices_below(mp.v_min) == below
            assert indices_above(mp.w_min) == above
            rep = census(ctx)
            assert rep.total_pairs == len(below) * len(above)

    def test_closed_form_matches_the_position_dp(self):
        for ctx in default_contexts(40):
            assert _count_below(minimal_pair(ctx).v_min.entries) == side_size(ctx), ctx
        assert [side_size(GrassCtx(k, n)) for k, n in [(4, 9), (5, 14), (7, 16), (9, 20)]] == [
            14, 143, 715, 8398
        ]

    def test_guard_side_count_matches_intervals(self):
        for ctx in default_contexts(16):
            mp = minimal_pair(ctx)
            s = side_size(ctx)
            assert s == len(indices_below(mp.v_min)) == len(indices_above(mp.w_min)), ctx

    def test_guard_counts_in_closed_form(self):
        # exact under the cap, so every count a refusal names is at most 2 ** 40
        for ctx in default_contexts(40):
            pairs = side_size(ctx) ** 2
            if pairs <= MAX_PAIRS:
                assert _check_census(ctx) == comb(ctx.n, ctx.k), ctx
            else:
                count = f"{pairs:,}" if side_size(ctx) <= MAX_PAIRS else f"more than {MAX_PAIRS:,}"
                message = "^" + re.escape(f"{ctx} has {count} admissible pairs;")
                with pytest.raises(GrassError, match=message):
                    _check_census(ctx)

    def test_guard_cap_is_exact_at_the_boundary(self):
        # C(2**21 + 1, 2) = 2**20 * n exactly: s = MAX_PAIRS is still spelled out
        with pytest.raises(GrassError, match=r"^G\(2,2097153\) has 1,099,511,627,776 admissible"):
            _check_census(GrassCtx(2, 2**21 + 1))
        with pytest.raises(GrassError, match=r"^G\(2,2097155\) has more than 1,048,576 admissible"):
            _check_census(GrassCtx(2, 2**21 + 3))
        # C(n,2) = 2**20 * n already at j = 2 < 5: the loop must go on past the cap
        with pytest.raises(GrassError, match=r"^G\(5,2097153\) has more than 1,048,576 admissible"):
            _check_census(GrassCtx(5, 2**21 + 1))

    def test_guard_admits_exactly_the_cap(self):
        # G(2,2049) has s = C(2049,2)/2049 = 1024 per side, 2**20 pairs in all
        assert _check_census(GrassCtx(2, 2049)) == 2_098_176
        with pytest.raises(GrassError, match=r"^G\(2,2051\) has 1,050,625 admissible pairs;"):
            _check_census(GrassCtx(2, 2051))

    def test_verify_totals_are_squares_of_the_closed_form(self):
        ctxs = default_contexts()
        rep = verify()
        assert [c.ctx for c in rep.censuses] == ctxs
        assert [c.total_pairs for c in rep.censuses] == [side_size(c) ** 2 for c in ctxs]

    @pytest.mark.parametrize(
        "ctx, refused",
        [(GrassCtx(500000, 1000001), True), (GrassCtx(4095, 4096), False)],
        ids=["far-refused", "narrow-passes"],
    )
    def test_guard_cost_is_bounded(self, ctx, refused):
        # a guard whose cost grows with k or with the digits of its count takes seconds here
        start = time.perf_counter()
        if refused:
            with pytest.raises(GrassError, match="more than 1,048,576 admissible pairs"):
                _check_census(ctx)
        else:
            assert _check_census(ctx) == ctx.n
        assert time.perf_counter() - start < 2

    def test_guard_refuses_before_analyzing(self, monkeypatch, capsys):
        monkeypatch.setattr(richgit.oracle, "analyze", refuse)
        monkeypatch.setattr(richgit.oracle, "indices_below", refuse)
        monkeypatch.setattr(richgit.oracle, "indices_above", refuse)
        message = (
            "G(9,20) has 70,526,404 admissible pairs; a census analyzes at most 1,048,576"
        )
        with pytest.raises(GrassError, match=f"^{re.escape(message)}$"):
            census(GrassCtx(9, 20))
        assert main(["census", "-k", "9", "-n", "20", "--format", "csv"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_gap_product_refuses_before_the_count(self, monkeypatch, capsys):
        # named for the guard's old lower bound; C(n,2) already passes the cap here
        monkeypatch.setattr(richgit.oracle, "analyze", refuse)
        monkeypatch.setattr(richgit.oracle, "_side_check", refuse)
        monkeypatch.setattr(richgit.oracle, "indices_below", refuse)
        monkeypatch.setattr(richgit.oracle, "indices_above", refuse)
        ctx = GrassCtx(3, 3000001)
        message = (
            "G(3,3000001) has more than 1,048,576 admissible pairs; "
            "a census analyzes at most 1,048,576"
        )
        with pytest.raises(GrassError, match=f"^{re.escape(message)}$"):
            census(ctx)
        with pytest.raises(GrassError, match=f"^{re.escape(message)}$"):
            verify([ctx])
        assert main(["census", "-k", "3", "-n", "3000001", "--format", "csv"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_guard_admits_the_largest_benchmark_context(self):
        # G(7,16) has (C(16,7)/16) ** 2 = 715 ** 2 = 511,225 pairs, under MAX_PAIRS
        assert side_size(GrassCtx(7, 16)) ** 2 == 511225 <= MAX_PAIRS
        assert _check_census(GrassCtx(7, 16)) == comb(16, 7)
        rep = census(GrassCtx(7, 16))
        assert (rep.total_pairs, rep.oracle_mismatches, rep.consistency_failures) == (
            511225, (), ()
        )

    def test_refusals_build_no_minimal_pair(self, monkeypatch, capsys):
        # _minimal_pair, minimal_pair's builder, builds three k-entry
        # tuples; a refusal must not wait for them
        monkeypatch.setattr(richgit.oracle, "_minimal_pair", refuse)
        monkeypatch.setattr(richgit.criteria, "_minimal_pair", refuse)
        for check in (_check_census, census, _census_csv, lambda c: verify([c])):
            with pytest.raises(NotCoprime, match=r"^k=4 and n=8 are not coprime$"):
                check(GrassCtx(4, 8))
        assert main(["census", "-k", "4", "-n", "8", "--format", "csv"]) == 2
        assert capsys.readouterr().err == "error: k=4 and n=8 are not coprime\n"

    def test_side_guard_refuses_before_any_work(self, monkeypatch):
        # G(3000000,3000001) has one pair, but s * k * n = 3000001 * 3000000 side cells
        for name in ("_minimal_pair", "analyze", "_side_check", "indices_below", "indices_above"):
            monkeypatch.setattr(richgit.oracle, name, refuse)
        message = (
            "G(3000000,3000001) has 9,000,003,000,000 side cells; "
            "a census checks at most 16,777,216"
        )
        for check in (census, _census_csv, lambda c: verify([c])):
            with pytest.raises(GrassError, match=f"^{re.escape(message)}$"):
                check(GrassCtx(3000000, 3000001))

    def test_side_guard_is_exact_at_the_bound(self):
        # G(1,n) has one pair and n side cells, so k = 1 meets the bound at n = 2**24;
        # from 2**48 cells on only the bound is named
        assert _check_census(GrassCtx(1, 2**24)) == MAX_SIDE_CELLS
        for n, count in [
            (2**24 + 1, "16,777,217"),
            (2**48 - 1, "281,474,976,710,655"),
            (2**48, "more than 16,777,216"),
        ]:
            message = f"G(1,{n}) has {count} side cells; a census checks at most 16,777,216"
            with pytest.raises(GrassError, match=f"^{re.escape(message)}$"):
                _check_census(GrassCtx(1, n))

    def test_side_guard_bound(self):
        # s * k * n = C(n,k) * k: G(k,k+1) has (k+1) * k, under the bound up to k = 4095;
        # the pair cap, every benchmark context and the default verify pass it
        assert 4096 * 4095 <= MAX_SIDE_CELLS < 4097 * 4096
        assert _check_census(GrassCtx(4095, 4096)) == 4096
        with pytest.raises(GrassError, match=r"^G\(4096,4097\) has 16,781,312 side cells;"):
            _check_census(GrassCtx(4096, 4097))
        for ctx in [GrassCtx(2, 2049), GrassCtx(5, 14), GrassCtx(7, 16), *default_contexts()]:
            assert _check_census(ctx) * ctx.k <= MAX_SIDE_CELLS

    @pytest.mark.parametrize("ctx", [*coprime_ctxs(12), GrassCtx(5, 14)], ids=str)
    def test_census_equals_per_pair_analyze(self, ctx):
        # census and the CSV rows rest on the edge product; analyze on every
        # pair, in pair order, must build the same counts, list and bytes
        total, smooth, mismatches, rows = per_pair_census(ctx)
        rep = census(ctx)
        assert (rep.total_pairs, rep.smooth_count, rep.singular_count) == (
            total, smooth, total - smooth
        )
        assert rep.mismatches == mismatches
        assert (rep.oracle_mismatches, rep.consistency_failures) == ((), ())
        assert_same_text(_census_csv(ctx), rows)

    def test_census_analyzes_the_edges_only(self, monkeypatch, capsys):
        # G(4,9) has s = 14 indices per side: 2 * 14 edge pairs, not 14 ** 2
        calls = []
        real = richgit.oracle.analyze

        def counting(v, w, ctx):
            calls.append((v.entries, w.entries))
            return real(v, w, ctx)

        monkeypatch.setattr(richgit.oracle, "analyze", counting)
        mp = minimal_pair(G49)
        census(G49)
        assert len(calls) == 2 * 14
        assert {v for v, w in calls if w != mp.w_min.entries} == {mp.v_min.entries}
        calls.clear()
        assert main(["census", "-k", "4", "-n", "9", "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 14**2
        assert len(calls) == 2 * 14

    def test_erratum_notes_present(self):
        rep = census(G49)
        assert any("(3,4,5,7)" in note for note in rep.erratum_notes)
        assert any("(1,3,7,9)" in note for note in rep.erratum_notes)

    def test_divergent_context_records_mismatches(self):
        rep = census(GrassCtx(3, 8))
        got = {(m.v.entries, m.w.entries) for m in rep.mismatches}
        assert ((1, 2, 4), (3, 6, 8)) in got
        assert all(
            m.smooth_by_components != m.smooth_by_pattern for m in rep.mismatches
        )
        assert any("disagrees" in note for note in rep.erratum_notes)


class TestVerify:
    @pytest.mark.parametrize(
        "ctxs, message",
        [
            pytest.param(
                [(7, 16), (9, 20)], r"G\(9,20\) has 70,526,404 admissible pairs", id="pairs"
            ),
            pytest.param(
                [(3, 8), (3000000, 3000001)],
                r"G\(3000000,3000001\) has 9,000,003,000,000 side cells",
                id="side",
            ),
            pytest.param([(3, 8), (4, 8)], "not coprime", id="coprime"),
        ],
    )
    def test_checks_every_context_before_any_census(self, monkeypatch, ctxs, message):
        monkeypatch.setattr(richgit.oracle, "analyze", refuse)
        monkeypatch.setattr(richgit.oracle, "_side_check", refuse)
        with pytest.raises(GrassError, match=message):
            verify([GrassCtx(k, n) for k, n in ctxs])

    def test_empty_input(self):
        rep = verify([])
        assert rep.censuses == ()
        assert rep.examples == ()
        assert rep.passed

    def test_reference_suite_passes(self):
        ctxs = [GrassCtx(2, 3), GrassCtx(2, 5), GrassCtx(3, 4), GrassCtx(3, 5), G49]
        rep = verify(ctxs)
        assert rep.passed
        assert rep.pattern_mismatch_total == 0
        assert rep.oracle_mismatch_total == 0
        assert len(rep.examples) == 4 and all(e.ok for e in rep.examples)

    def test_divergent_context_fails(self):
        rep = verify([GrassCtx(3, 8)])
        assert not rep.passed
        assert rep.pattern_mismatch_total == 7

    def test_deterministic_serialization(self):
        ctxs = [GrassCtx(2, 5), GrassCtx(3, 8), G49]
        first = to_json(verify(ctxs).to_dict())
        second = to_json(verify(ctxs).to_dict())
        assert first == second

    def test_default_contexts(self):
        ctxs = default_contexts()
        assert all(gcd(c.k, c.n) == 1 for c in ctxs)
        assert max(c.n for c in ctxs) == 12
        assert GrassCtx(4, 9) in ctxs
        assert GrassCtx(4, 6) not in ctxs

