import copy
import gc
import hashlib
import json
import pickle
import random
import re
import tracemalloc
from math import gcd
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import richgit.criteria
import richgit.singular
from richgit import (
    EMPTY_QUOTIENT,
    SINGULAR,
    SMOOTH,
    ContextMismatch,
    EmptyRichardson,
    GrassCtx,
    GrassIndex,
    NotCoprime,
    OutOfRange,
    RichardsonId,
    WrongLength,
    analyze,
    complement_index,
    enumerate_indices,
    has_semistable,
    indices_above,
    indices_below,
    make_index,
    minimal_pair,
    opposite_singular_components,
    richardson_singular_components,
    schubert_singular_components,
)
from richgit.cli import main
from richgit.criteria import _lower_clauses, _upper_clause
from richgit.singular import _schubert_walk

from helpers import G49, coprime_ctxs, idx

G25 = GrassCtx(2, 5)


def rid(v, w, ctx=G49):
    return RichardsonId(make_index(v, ctx), make_index(w, ctx))


class TestMinimalPair:
    def test_reference(self):
        mp = minimal_pair(G49)
        assert mp.w_min.entries == (3, 5, 7, 9)
        assert mp.v_min.entries == (1, 3, 5, 7)
        assert mp.a == (3, 5, 7, 9)

    def test_projective_space(self):
        for n in (2, 5, 9):
            mp = minimal_pair(GrassCtx(1, n))
            assert mp.w_min.entries == (n,)
            assert mp.v_min.entries == (1,)

    def test_small_case(self):
        mp = minimal_pair(GrassCtx(2, 5))
        assert mp.w_min.entries == (3, 5)
        assert mp.v_min.entries == (1, 3)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime, match="k=4 and n=6 are not coprime"):
            minimal_pair(GrassCtx(4, 6))

    def test_a_sequence_properties(self):
        for ctx in coprime_ctxs(40):
            mp = minimal_pair(ctx)
            k, n = ctx.k, ctx.n
            for i, a in enumerate(mp.a, start=1):
                assert a * k >= i * n > (a - 1) * k  # smallest such integer
            assert mp.a[-1] == n
            assert mp.w_min.entries == mp.a
            # both indices are built trusted; the validating constructor
            # accepts their entries
            for u in (mp.w_min, mp.v_min):
                assert GrassIndex(u.entries, ctx) == u
            assert mp.v_min <= mp.w_min  # hypothesis subsumption

    def test_complement_of_v_min_is_w_min(self):
        # n + 1 - a_{k-i} = 1 + floor(i*n/k) = a_i for coprime k, n
        for ctx in coprime_ctxs(40):
            mp = minimal_pair(ctx)
            assert complement_index(mp.v_min) == mp.w_min, ctx

    def test_gap_of_two_holds_iff_wide_rectangle(self):
        # a_i >= a_{i-1} + 2 (a_0 = 1) holds exactly on the n > 2k side
        for ctx in coprime_ctxs(12, min_k=2):
            mp = minimal_pair(ctx)
            a = (1,) + mp.a
            gaps_ok = all(a[i] >= a[i - 1] + 2 for i in range(1, len(a)))
            assert gaps_ok == (ctx.n > 2 * ctx.k), ctx


def pair_memo(ctx):
    """The minimal-pair memo slot of ctx, None while unfilled."""
    return getattr(ctx, "_minimal", None)


class TestPairMemo:
    def test_memo_slot_is_not_a_field(self):
        assert GrassCtx.__match_args__ == ("k", "n")
        ctx = GrassCtx(2, 5)
        assert pair_memo(ctx) is None
        with pytest.raises(AttributeError):
            ctx._minimal = None
        assert pair_memo(ctx) is None

    def test_pair_is_built_once_per_context_object(self):
        ctx = GrassCtx(4, 9)
        mp = minimal_pair(ctx)
        assert pair_memo(ctx) is mp and minimal_pair(ctx) is mp
        # analyze reads the same memo, and fills it on a fresh context
        fresh = GrassCtx(4, 9)
        analyze((1, 3, 4, 6), (3, 5, 7, 9), fresh)
        assert pair_memo(fresh) == mp and pair_memo(fresh) is not mp
        assert minimal_pair(fresh) is pair_memo(fresh)

    def test_filled_memo_is_invisible(self):
        filled = GrassCtx(4, 9)
        mp = minimal_pair(filled)
        fresh = GrassCtx(4, 9)
        assert pair_memo(fresh) is None
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        clones = (
            copy.copy(filled),
            copy.deepcopy(filled),
            pickle.loads(pickle.dumps(filled)),
            filled.__replace__(),
        )
        for clone in clones:
            assert clone == filled and pair_memo(clone) is None
            again = minimal_pair(clone)
            assert again == mp and again is not mp

    def test_dropped_context_retains_nothing(self):
        # the pair points back at its context, so the two form a cycle that
        # only a collection frees.  A global cache would keep both: about
        # 460 KiB for this context.
        gc.collect()
        tracemalloc.start()
        try:
            ctx = GrassCtx(10000, 10001)
            assert len(minimal_pair(ctx).a) == 10000
            del ctx
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 1024


class TestHasSemistable:
    def test_reference_values(self):
        mp = minimal_pair(G49)
        assert has_semistable(rid((1, 2, 4, 7), (3, 6, 7, 9)), mp)
        assert not has_semistable(rid((1, 2, 6, 7), (3, 6, 7, 9)), mp)
        assert has_semistable(rid((1, 3, 5, 7), (3, 5, 7, 9)), mp)

    def test_equivalent_to_minimal_containment(self):
        # independent route: X^{v_min}_{w_min} sits inside X^v_w iff every
        # T-fixed point u of the former (v_min <= u <= w_min) satisfies
        # v <= u <= w; the fixed points come from filtering I(k,n)
        for ctx in coprime_ctxs(9):
            mp = minimal_pair(ctx)
            elems = enumerate_indices(ctx)
            fixed = [u for u in elems if mp.v_min <= u <= mp.w_min]
            for v in elems:
                for w in elems:
                    if not v <= w:
                        continue
                    contained = all(v <= u <= w for u in fixed)
                    assert has_semistable(RichardsonId(v, w), mp) == contained


class TestSmoothByComponents:
    def test_reference_values(self):
        assert analyze((1, 3, 4, 6), (3, 5, 7, 9), G49).smooth_by_components
        assert not analyze((1, 2, 3, 5), (3, 5, 7, 9), G49).smooth_by_components
        assert not analyze((1, 3, 4, 6), (5, 7, 8, 9), G49).smooth_by_components


class TestSmoothByPattern:
    def test_reference_values(self):
        assert analyze((1, 3, 5, 7), (3, 5, 7, 9), G49).smooth_by_pattern
        assert not analyze((1, 2, 3, 5), (3, 5, 7, 9), G49).smooth_by_pattern
        assert analyze((1, 2, 4, 7), (3, 5, 7, 9), G49).smooth_by_pattern

    def test_cross_check_against_components(self):
        rep = analyze((1, 2, 4, 7), (3, 5, 7, 9), G49)
        assert rep.smooth_by_components == rep.smooth_by_pattern is True


class TestClauses:
    def test_clauses_are_the_walks_per_side_index(self):
        # analyze's lemma on every side index of every coprime context with
        # n <= 16: A(w) iff no Schubert component w' of w has w' >= w_min,
        # and B(v) iff no opposite component v' of v has v' <= v_min
        indices = 0
        for ctx in coprime_ctxs(16):
            mp = minimal_pair(ctx)
            a, v_min = mp.a, mp.v_min.entries
            for w in indices_above(mp.w_min):
                flagged = any(all(map(le, a, c)) for c in _schubert_walk(w.entries))
                assert _upper_clause(w.entries, a) is not flagged, (ctx, w)
                indices += 1
            for v in indices_below(mp.v_min):
                comps = opposite_singular_components(v)
                flagged = any(all(map(le, c.entries, v_min)) for c in comps)
                assert _lower_clauses(v.entries, v_min, a)[0] is not flagged, (ctx, v)
                indices += 1
        assert indices == 2 * 4505


# sha256 of json.dumps(analyze(v, w, ctx).to_dict(), sort_keys=True), concatenated
# over every pair v <= w, in enumeration order, of every coprime context with
# n <= 9: pins component lists, component flags and dimensions, not only verdicts
ANALYZE_DIGEST_N9 = "cee34a1ace0727b537f4e08e96f77e480c461af82f30aed4459bdffe8b31a1c8"


@st.composite
def coprime_pairs(draw, max_n=30):
    """(v, w, ctx) with v <= w in a random coprime G(k, n), n <= max_n.

    Half the draws clamp v below v_min and w above w_min, so the pair
    admits semistable points; the rest are two random indices sorted
    componentwise.
    """
    n = draw(st.integers(2, max_n))
    k = draw(st.sampled_from([k for k in range(1, n) if gcd(k, n) == 1]))
    ctx = GrassCtx(k, n)
    a = sorted(draw(st.permutations(range(1, n + 1)))[:k])
    b = sorted(draw(st.permutations(range(1, n + 1)))[:k])
    v, w = tuple(map(min, a, b)), tuple(map(max, a, b))
    if draw(st.booleans()):
        mp = minimal_pair(ctx)
        v = tuple(map(min, a, mp.v_min.entries))
        w = tuple(map(max, b, mp.w_min.entries))
    return v, w, ctx


class IntSubclass(int):
    pass


PARITY_CTXS = [(1, 3), (2, 5), (3, 7), (3, 8), (4, 9), (5, 7)]
SPOILS = ["drop", "extra", "zero", "past_n", "repeat", "bool", "int_subclass", "float"]
ARG_KINDS = ["tuple", "list", "warm", "equal", "other"]


@st.composite
def analyze_args(draw):
    """(k, n, v, w) with v and w analyze's arguments on G(k, n) as (kind, entries).

    Both sides start as strictly increasing k-tuples in [1, n], with
    v <= w in half the draws.  One side in three is spoiled: a dropped or
    an extra entry, 0 or n + 1, a repeated entry, or a bool, int-subclass
    or float entry.  Half the draws pass both sides as tuples, the only
    pair the fused test can take; otherwise each side is a tuple or a
    list, or, unspoiled, an index of the warm context ("warm"), of an
    equal but distinct one ("equal") or of G(k, n + 1) ("other").
    """
    k, n = draw(st.sampled_from(PARITY_CTXS))
    a, b = (sorted(draw(st.sets(st.integers(1, n), min_size=k, max_size=k))) for _ in "ab")
    if draw(st.booleans()):
        a, b = list(map(min, a, b)), list(map(max, a, b))
    spoiled = draw(st.sampled_from([None, 0, 1]))
    if spoiled is not None:
        entries, pos = (a, b)[spoiled], draw(st.integers(0, k - 1))
        spoil = draw(st.sampled_from(SPOILS))
        if spoil == "drop":
            del entries[pos]
        elif spoil == "extra":
            entries.insert(pos, entries[pos])
        elif spoil == "zero":
            entries[0] = 0
        elif spoil == "past_n":
            entries[-1] = n + 1
        elif spoil == "repeat":
            if k > 1:
                entries[max(pos, 1)] = entries[max(pos, 1) - 1]
        else:
            cast = {"bool": lambda e: bool(e % 2), "int_subclass": IntSubclass, "float": float}
            entries[pos] = cast[spoil](entries[pos])
    if draw(st.booleans()):
        kinds = ["tuple", "tuple"]
    else:
        kinds = [
            draw(st.sampled_from(ARG_KINDS[:2] if i == spoiled else ARG_KINDS)) for i in (0, 1)
        ]
    return k, n, (kinds[0], tuple(a)), (kinds[1], tuple(b))


def outcome(v, w, ctx):
    """analyze(v, w, ctx), or the class and message of what it raises."""
    try:
        return analyze(v, w, ctx)
    except Exception as error:
        return type(error), str(error)


def assert_verdict_follows_components(rep):
    # analyze decides the verdict in its own loop over the side records;
    # it must equal the flags of the component list built on read
    if rep.has_semistable:
        assert rep.smooth_by_components == (not any(c.has_semistable for c in rep.components))
    else:
        assert rep.smooth_by_components is None


class TestAnalyze:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(coprime_pairs())
    def test_components_match_the_per_component_path(self, pair):
        # analyze flags each component from the pair's own halves; the slow
        # path tests every component pair in full with has_semistable
        v, w, ctx = pair
        mp = minimal_pair(ctx)
        rid = RichardsonId(make_index(v, ctx), make_index(w, ctx))
        rep = analyze(v, w, ctx)
        got = [(c.pair, c.source, c.has_semistable) for c in rep.components]
        assert got == [
            (c.pair, c.source, has_semistable(c.pair, mp))
            for c in richardson_singular_components(rid)
        ]
        assert_verdict_follows_components(rep)

    def test_golden_digest(self):
        # every pair with n <= 9: the report's bytes, and its components
        # against the public listing and the full per-component test
        digest = hashlib.sha256()
        pairs = 0
        for ctx in coprime_ctxs(9):
            mp = minimal_pair(ctx)
            elems = enumerate_indices(ctx)
            for v in elems:
                for w in elems:
                    if v <= w:
                        rep = analyze(v, w, ctx)
                        ref = richardson_singular_components(RichardsonId(v, w))
                        got = [(c.pair, c.source) for c in rep.components]
                        assert got == [(c.pair, c.source) for c in ref]
                        assert [c.has_semistable for c in rep.components] == [
                            has_semistable(c.pair, mp) for c in ref
                        ]
                        # the same pair as raw tuples, on the warm context
                        assert analyze(v.entries, w.entries, ctx) == rep
                        doc = json.dumps(rep.to_dict(), sort_keys=True)
                        digest.update(doc.encode())
                        pairs += 1
        assert pairs == 15813
        assert digest.hexdigest() == ANALYZE_DIGEST_N9

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(analyze_args())
    @example((4, 9, ("tuple", (1, 3, 5, 7)), ("tuple", (3, 5, IntSubclass(7), 9))))
    @example((4, 9, ("tuple", (1.0, 3, 5, 7)), ("tuple", (3, 5, 7, 9))))
    @example((4, 9, ("tuple", (True, 3, 5, 7)), ("tuple", (3, 5, 7, 9))))
    @example((4, 9, ("tuple", (1, 3, 3, 7)), ("tuple", (3, 5, 7, 9))))
    @example((4, 9, ("tuple", (1, 3, 5, 7)), ("tuple", (3, 5, 7, 7))))
    @example((4, 9, ("tuple", (0, 3, 5, 7)), ("tuple", (3, 5, 7, 9))))
    @example((4, 9, ("tuple", (1, 3, 5, 7)), ("tuple", (3, 5, 7, 10))))
    @example((4, 9, ("tuple", (3, 5, 7, 9)), ("tuple", (1, 3, 5, 7))))
    @example((4, 9, ("warm", (1, 3, 5, 7)), ("equal", (3, 5, 7, 9))))
    @example((4, 9, ("equal", (1, 3, 5, 7)), ("warm", (3, 5, 7, 9))))
    @example((1, 3, ("tuple", (1,)), ("tuple", (3,))))
    # the fused test's semistability arm: v_min = (1,3,5,7), w_min = (3,5,7,9).
    # A semistable pair, which skips the v <= w test; a pair that is not
    # semistable but has v <= w; and v <= v_min with w neither >= w_min nor
    # >= v, which must raise EmptyRichardson as the checked path does
    @example((4, 9, ("tuple", (1, 2, 4, 6)), ("tuple", (4, 6, 8, 9))))
    @example((4, 9, ("tuple", (2, 4, 6, 8)), ("tuple", (3, 5, 7, 9))))
    @example((4, 9, ("tuple", (1, 3, 5, 7)), ("tuple", (2, 3, 4, 9))))
    def test_warm_context_answers_as_a_fresh_one(self, args):
        # analyze on a context whose minimal pair is memoized takes its
        # fast checks; on a fresh one, the checks one by one.  Both must
        # give equal reports or the same error class and message
        k, n, *sides = args
        fresh, warm = GrassCtx(k, n), GrassCtx(k, n)
        minimal_pair(warm)
        owners = {"warm": warm, "equal": GrassCtx(k, n), "other": GrassCtx(k, n + 1)}
        v, w = (
            idx(e, owners[kind]) if kind in owners else list(e) if kind == "list" else e
            for kind, e in sides
        )
        assert pair_memo(fresh) is None
        assert outcome(v, w, fresh) == outcome(v, w, warm)

    def test_warm_context_skips_the_checked_path(self, monkeypatch):
        # a valid raw pair (at the bounds 1 and n too, and with v = w)
        # skips _checked_pair once the memo is filled; the first call,
        # lists and prebuilt indices, of this context or an equal but
        # distinct one, take it and give the same reports
        calls = []
        checked = richgit.criteria._checked_pair

        def counting(v, w, ctx):
            calls.append((v, w))
            return checked(v, w, ctx)

        monkeypatch.setattr(richgit.criteria, "_checked_pair", counting)
        for ctx, pairs in [
            (GrassCtx(4, 9), [((1, 2, 3, 4), (6, 7, 8, 9)), ((1, 3, 5, 9), (1, 3, 5, 9))]),
            (GrassCtx(1, 3), [((1,), (3,)), ((2,), (2,))]),
        ]:
            want = [analyze(v, w, GrassCtx(ctx.k, ctx.n)) for v, w in pairs]
            assert len(calls) == len(pairs)
            del calls[:]
            minimal_pair(ctx)
            for (v, w), rep in zip(pairs, want):
                assert analyze(v, w, ctx) == rep
            assert calls == []
            for (v, w), rep in zip(pairs, want):
                assert analyze(idx(v, ctx), idx(w, ctx), ctx) == rep
            assert len(calls) == len(pairs)
            del calls[:]
            v, w = pairs[0]
            assert analyze(list(v), w, ctx) == want[0]
            assert analyze(v, list(w), ctx) == want[0]
            twin = GrassCtx(ctx.k, ctx.n)
            assert analyze(idx(v, twin), idx(w, ctx), ctx) == want[0]
            assert analyze(idx(v, ctx), idx(w, twin), ctx) == want[0]
            assert len(calls) == 4
            del calls[:]

    @pytest.mark.parametrize("k, n", [(7, 16), (9, 20), (11, 24)])
    @pytest.mark.parametrize("group", ["inside", "v_only", "w_only", "neither"])
    def test_two_comparison_lemma_at_large_k(self, k, n, group):
        # test_golden_digest reaches only k <= 8: seeded pairs at large k, by
        # which of v <= v_min and w >= w_min hold, each checked against the
        # public listing and the full per-component test
        ctx = GrassCtx(k, n)
        mp = minimal_pair(ctx)
        v_min, w_min = mp.v_min.entries, mp.w_min.entries
        want_v, want_w = group in ("inside", "v_only"), group in ("inside", "w_only")
        rng = random.Random(f"{k},{n},{group}")
        flags = []
        pairs = dropped = 0
        while pairs < 60:
            a, b = (tuple(sorted(rng.sample(range(1, n + 1), k))) for _ in range(2))
            v = tuple(map(min, a, v_min)) if want_v else tuple(map(min, a, b))
            w = tuple(map(max, b, w_min)) if want_w else tuple(map(max, a, b))
            vi, wi = make_index(v, ctx), make_index(w, ctx)
            if (vi <= mp.v_min, wi >= mp.w_min) != (want_v, want_w) or not vi <= wi:
                continue
            rep = analyze(vi, wi, ctx)
            ref = richardson_singular_components(RichardsonId(vi, wi))
            assert [(c.pair, c.source) for c in rep.components] == [
                (c.pair, c.source) for c in ref
            ]
            got = [c.has_semistable for c in rep.components]
            assert got == [has_semistable(c.pair, mp) for c in ref]
            assert_verdict_follows_components(rep)
            flags += got
            pairs += 1
            candidates = schubert_singular_components(wi) + opposite_singular_components(vi)
            dropped += len(candidates) - len(ref)
        # components are kept and flagged; on the rectangle none is dropped
        # (w_{j-1} >= a_{j-1} = v_min_j >= v_j), off it the filters drop some
        assert len(flags) > pairs
        assert any(flags) == (group == "inside")
        assert (dropped > 0) == (group != "inside")

    def test_verdict_builds_no_component(self, monkeypatch):
        # the verdict reads the clauses only: components become indices when
        # components is read, one per component on the rectangle, not before
        ctx = GrassCtx(4, 9)
        minimal_pair(ctx)
        built = []
        index = richgit.singular._index

        def counting_index(entries, ctx):
            built.append(entries)
            return index(entries, ctx)

        monkeypatch.setattr(richgit.singular, "_index", counting_index)
        rep = analyze((1, 2, 3, 5), (3, 5, 7, 9), ctx)
        assert rep.verdict == SINGULAR
        assert built == []
        components = rep.components
        assert components and len(built) == len(components)

    def test_reference_verdicts(self):
        assert analyze((1, 3, 5, 7), (3, 5, 7, 9), G49).verdict == SMOOTH
        assert analyze((1, 2, 6, 7), (3, 6, 7, 9), G49).verdict == EMPTY_QUOTIENT
        assert analyze((1, 3, 4, 6), (5, 7, 8, 9), G49).verdict == SINGULAR

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            analyze((1, 2, 3, 4), (3, 4, 5, 6), GrassCtx(4, 6))

    def test_refuses_before_building_the_minimal_pair(self, monkeypatch, capsys):
        # _minimal_pair, minimal_pair's builder, builds three k-entry
        # tuples; a refusal must not wait for them
        def refuse(ctx):
            raise AssertionError("_minimal_pair ran before analyze's checks")

        monkeypatch.setattr(richgit.criteria, "_minimal_pair", refuse)
        huge = GrassCtx(1000000, 1000001)
        wrong_length = "expected 1000000 entries for G(1000000,1000001), got 2"
        cases = [
            ((1, 2), (1, 2), GrassCtx(4, 8), NotCoprime, "k=4 and n=8 are not coprime"),
            ((1, 2), (1, 2), huge, WrongLength, wrong_length),
            ((1, 2, 3), (1, 2, 3, 10), G49, WrongLength, "expected 4 entries for G(4,9), got 3"),
            (
                (1, 2, 3, 4),
                (1, 2, 3, 10),
                G49,
                OutOfRange,
                "entry 10 at position 4 is outside [1, 9]",
            ),
            (
                (3, 5, 7, 9),
                (1, 3, 4, 6),
                G49,
                EmptyRichardson,
                "v=(3,5,7,9) is not below w=(1,3,4,6); X^v_w is empty",
            ),
            (
                idx((1, 2), G25),
                idx((2, 5), G25),
                G49,
                ContextMismatch,
                "pair is from G(2,5), minimal pair from G(4,9)",
            ),
            (
                idx((1, 2), G25),
                idx((3, 5, 7, 9), G49),
                G49,
                ContextMismatch,
                "v is from G(2,5) but w is from G(4,9)",
            ),
            (
                idx((2, 5), G25),
                idx((1, 2), G25),
                G49,
                EmptyRichardson,
                "v=(2,5) is not below w=(1,2); X^v_w is empty",
            ),
        ]
        for v, w, ctx, error, message in cases:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                analyze(v, w, ctx)
        argv = ["analyze", "-k", "1000000", "-n", "1000001", "--v", "1,2", "--w", "1,2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {wrong_length}\n"

    def test_accepts_prebuilt_indices(self):
        rep = analyze(idx((1, 3, 5, 7)), idx((3, 5, 7, 9)), G49)
        assert rep.verdict == SMOOTH

    def test_empty_quotient_report_shape(self):
        rep = analyze((1, 2, 6, 7), (3, 6, 7, 9), G49)
        assert rep.nonempty
        assert not rep.has_semistable
        assert rep.smooth_by_components is None
        assert rep.smooth_by_pattern is None
        assert not rep.mismatch
        assert rep.dimension == 9

    def test_component_flags_drive_verdict(self):
        rep = analyze((1, 2, 3, 5), (3, 5, 7, 9), G49)
        flagged = [
            (c.pair.v.entries, c.pair.w.entries)
            for c in rep.components
            if c.has_semistable
        ]
        assert flagged == [((1, 2, 5, 6), (3, 5, 7, 9))]
        assert rep.smooth_by_components is False

    def test_verdict_logic_exhaustive(self):
        for ctx in coprime_ctxs(7):
            elems = enumerate_indices(ctx)
            for v in elems:
                for w in elems:
                    if not v <= w:
                        continue
                    rep = analyze(v, w, ctx)
                    assert rep.verdict in (EMPTY_QUOTIENT, SMOOTH, SINGULAR)
                    assert (rep.verdict == EMPTY_QUOTIENT) == (not rep.has_semistable)
                    if rep.has_semistable:
                        assert rep.verdict == (
                            SMOOTH if rep.smooth_by_components else SINGULAR
                        )

    def test_criteria_agree_when_a_steps_by_two(self):
        # n = 2k + 1 makes every a-gap exactly 2; there the pattern shortcut
        # provably matches the component criterion
        for ctx in (GrassCtx(2, 5), GrassCtx(3, 7), GrassCtx(4, 9), GrassCtx(5, 11)):
            mp = minimal_pair(ctx)
            for v in indices_below(mp.v_min):
                for w in indices_above(mp.w_min):
                    rep = analyze(v, w, ctx)
                    assert not rep.mismatch, (ctx, v, w)

    def test_known_divergence_of_the_pattern_shortcut(self):
        # Documented divergence: the component criterion is the geometric
        # truth; the pattern shortcut's lower-index clause compares only
        # a_{j-1} with c_j + 1 and goes wrong when consecutive a-values do
        # not step by exactly 2.  Both directions occur.
        ctx = GrassCtx(3, 8)  # a = (3, 6, 8), one gap of 3
        rep = analyze((1, 2, 4), (3, 6, 8), ctx)
        assert rep.smooth_by_components is True
        assert rep.smooth_by_pattern is False
        assert rep.mismatch
        assert rep.verdict == SMOOTH  # components win

        ctx = GrassCtx(7, 12)  # a = (2,4,6,7,9,11,12), gaps of 1
        rep = analyze((1, 2, 3, 4, 6, 7, 8), (2, 4, 6, 7, 9, 11, 12), ctx)
        assert rep.smooth_by_components is False
        assert rep.smooth_by_pattern is True
        assert rep.verdict == SINGULAR
