from math import gcd

import pytest

from richgit import (
    GrassCtx,
    NotCoprime,
    census,
    default_contexts,
    enumerate_indices,
    hook_oracle_components,
    indices_above,
    indices_below,
    make_index,
    minimal_pair,
    oracle_sweep,
    schubert_singular_components,
    verify,
)
from richgit.cli import to_json

G49 = GrassCtx(4, 9)


def idx(values, ctx=G49):
    return make_index(values, ctx)


class TestHookOracle:
    def test_matches_formula_on_reference(self):
        w = idx((3, 5, 7, 9))
        assert hook_oracle_components(w) == frozenset(schubert_singular_components(w))
        assert {c.entries for c in hook_oracle_components(w)} == {
            (2, 3, 7, 9),
            (3, 4, 5, 9),
            (3, 5, 6, 7),
        }

    def test_rectangle(self):
        assert hook_oracle_components(idx((1, 2, 8, 9))) == frozenset()

    def test_two_component_case(self):
        assert {c.entries for c in hook_oracle_components(idx((3, 6, 8, 9)))} == {
            (2, 3, 8, 9),
            (3, 5, 6, 9),
        }

    def test_sweep_clean_up_to_nine(self):
        for ctx in [
            GrassCtx(k, n) for n in range(2, 10) for k in range(1, n)
        ]:
            assert oracle_sweep(ctx) == ()


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

