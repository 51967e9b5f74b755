import gc
import importlib
import pkgutil
import random
import tracemalloc
from itertools import combinations

from richgit import (
    OPPOSITE_SIDE,
    SCHUBERT_SIDE,
    GrassCtx,
    GrassIndex,
    RichardsonId,
    analyze,
    census,
    complement_index,
    enumerate_indices,
    length,
    make_index,
    opposite_singular_components,
    richardson_singular_components,
    schubert_singular_components,
    to_partition,
)
from richgit import singular
from richgit.core import _index
from richgit.oracle import _hook_oracle_entries
from richgit.diagrams import _iota
from richgit.singular import _schubert_walk

from helpers import G49, all_small_ctxs, idx, runs


def entry_set(components):
    return {c.entries for c in components}


def run_length_substitutions(p):
    """Part sequences from (p_i^{q_i}, p_{i+1}^{q_{i+1}}) -> ((p_i-1)^{q_i+1}, p_{i+1}^{q_{i+1}-1}).

    One per boundary between nonzero runs, bottom first.  Expanding with
    the zero rows in front absorbs a run lowered to 0 and drops a run
    left with multiplicity 0.
    """
    rl = [(0, p.parts.count(0))] + runs(p)
    out = []
    for i in range(1, len(rl) - 1):
        (pi, qi), (pnext, qnext) = rl[i], rl[i + 1]
        new = rl[:i] + [(pi - 1, qi + 1), (pnext, qnext - 1)] + rl[i + 2 :]
        out.append(tuple(value for value, mult in new for _ in range(mult)))
    return out


class TestSchubertComponents:
    def test_staircase_reference(self):
        comps = schubert_singular_components(idx((3, 5, 7, 9)))
        assert entry_set(comps) == {(2, 3, 7, 9), (3, 4, 5, 9), (3, 5, 6, 7)}

    def test_rectangle_is_smooth(self):
        assert schubert_singular_components(idx((1, 2, 8, 9))) == ()
        assert schubert_singular_components(idx((6, 7, 8, 9))) == ()

    def test_two_runs_with_multiplicity(self):
        comps = schubert_singular_components(idx((3, 6, 8, 9)))
        assert entry_set(comps) == {(2, 3, 8, 9), (3, 5, 6, 9)}

    def test_substitution_creates_zero_parts(self):
        # lowering a height-1 run turns it into zero rows
        ctx = GrassCtx(2, 5)
        comps = schubert_singular_components(make_index((2, 4), ctx))
        assert entry_set(comps) == {(1, 2)}

    def test_component_count_is_valley_count(self):
        for ctx in all_small_ctxs(9):
            for w in enumerate_indices(ctx):
                comps = schubert_singular_components(w)
                assert len(comps) == max(len(runs(to_partition(w))) - 1, 0)
                assert len(set(comps)) == len(comps)

    def test_agrees_with_diagram_hook_removal(self):
        # hook removal at each valley equals the run-length substitution,
        # component for component and in the same order
        for ctx in all_small_ctxs(9):
            for w in enumerate_indices(ctx):
                via_hooks = [to_partition(c).parts for c in schubert_singular_components(w)]
                assert via_hooks == run_length_substitutions(to_partition(w))

    def test_strict_containment(self):
        for ctx in all_small_ctxs(9):
            for w in enumerate_indices(ctx):
                for c in schubert_singular_components(w):
                    assert c <= w and c != w


class TestOppositeComponents:
    def test_reference(self):
        comps = opposite_singular_components(idx((2, 4, 5, 7)))
        assert entry_set(comps) == {(4, 5, 6, 7), (2, 4, 7, 8)}

    def test_point_is_smooth(self):
        assert opposite_singular_components(idx((6, 7, 8, 9))) == ()

    def test_derived_via_complement(self):
        comps = opposite_singular_components(idx((1, 2, 4, 7)))
        assert entry_set(comps) == {(1, 2, 7, 8), (1, 4, 5, 7)}

    def test_strict_containment(self):
        for ctx in all_small_ctxs(9):
            for v in enumerate_indices(ctx):
                for c in opposite_singular_components(v):
                    assert v <= c and c != v

    def test_dropped_entries_order_the_listings(self):
        # an order law stated without iota: each component drops one entry
        # of its index, at positions that strictly increase along the
        # Schubert listing of w and strictly decrease along the opposite one
        def dropped(x, comps):
            out = []
            for c in comps:
                (gone,) = set(x.entries) - set(c.entries)
                out.append(x.entries.index(gone))
            return out

        for ctx in all_small_ctxs(10):
            for x in enumerate_indices(ctx):
                up = dropped(x, schubert_singular_components(x))
                down = dropped(x, opposite_singular_components(x))
                assert all(a < b for a, b in zip(up, up[1:])), x
                assert all(a > b for a, b in zip(down, down[1:])), x

    def test_mirrored_walk_on_entries(self):
        # every index with n <= 14: as a set against the cell oracle read
        # through iota, and each component swaps one entry of v for another
        for ctx in all_small_ctxs(14):
            n = ctx.n
            for e in combinations(range(1, n + 1), ctx.k):
                got = [c.entries for c in opposite_singular_components(_index(e, ctx))]
                assert set(got) == {_iota(c, n) for c in _hook_oracle_entries(_iota(e, n))}, e
                assert all(len(set(c) - set(e)) == 1 for c in got), e

    def test_box_counts_grow_by_hook_size(self):
        # dual route without re-deriving the complement construction: each
        # component's dimension exceeds the input's by the size of the hook
        # removed from the complemented diagram
        for ctx in all_small_ctxs(9):
            for v in enumerate_indices(ctx):
                p = to_partition(complement_index(v))
                rl = runs(p)
                drops = sorted(
                    rl[i][1] + rl[i + 1][0] - rl[i][0] + 1 for i in range(len(rl) - 1)
                )
                grows = sorted(
                    length(c) - length(v) for c in opposite_singular_components(v)
                )
                assert grows == drops
                assert all(g > 0 for g in grows)


class TestRichardsonComponents:
    def test_reference_filtering(self):
        rid = RichardsonId(idx((2, 4, 5, 7)), idx((3, 5, 7, 9)))
        comps = richardson_singular_components(rid)
        got = {(c.pair.v.entries, c.pair.w.entries, c.source) for c in comps}
        assert got == {
            ((2, 4, 5, 7), (3, 4, 5, 9), SCHUBERT_SIDE),
            ((2, 4, 5, 7), (3, 5, 6, 7), SCHUBERT_SIDE),
            ((2, 4, 7, 8), (3, 5, 7, 9), OPPOSITE_SIDE),
        }
        # the two empty intersections must have been dropped
        pairs = {(c.pair.v.entries, c.pair.w.entries) for c in comps}
        assert ((2, 4, 5, 7), (2, 3, 7, 9)) not in pairs
        assert ((4, 5, 6, 7), (3, 5, 7, 9)) not in pairs

    def test_opposite_side_membership(self):
        rid = RichardsonId(idx((1, 2, 3, 5)), idx((3, 5, 7, 9)))
        pairs = {
            (c.pair.v.entries, c.pair.w.entries)
            for c in richardson_singular_components(rid)
        }
        assert ((1, 2, 5, 6), (3, 5, 7, 9)) in pairs
        assert pairs == {
            ((1, 2, 3, 5), (2, 3, 7, 9)),
            ((1, 2, 3, 5), (3, 4, 5, 9)),
            ((1, 2, 3, 5), (3, 5, 6, 7)),
            ((1, 2, 5, 6), (3, 5, 7, 9)),
        }

    def test_five_component_case(self):
        rid = RichardsonId(idx((1, 3, 4, 6)), idx((3, 5, 7, 9)))
        pairs = {
            (c.pair.v.entries, c.pair.w.entries)
            for c in richardson_singular_components(rid)
        }
        assert pairs == {
            ((1, 3, 4, 6), (2, 3, 7, 9)),
            ((1, 3, 4, 6), (3, 4, 5, 9)),
            ((1, 3, 4, 6), (3, 5, 6, 7)),
            ((1, 3, 6, 7), (3, 5, 7, 9)),
            ((3, 4, 5, 6), (3, 5, 7, 9)),
        }

    def test_point_has_no_components(self):
        for v in ((1, 2, 3, 4), (2, 4, 5, 7), (3, 5, 7, 9)):
            rid = RichardsonId(idx(v), idx(v))
            assert richardson_singular_components(rid) == ()

    def test_components_strictly_inside_and_unique(self):
        for ctx in all_small_ctxs(9):
            elems = enumerate_indices(ctx)
            for v in elems:
                for w in elems:
                    if not v <= w:
                        continue
                    comps = richardson_singular_components(RichardsonId(v, w))
                    assert len({c.pair for c in comps}) == len(comps)
                    sides = [c.source for c in comps]
                    assert sides == sorted(sides, key=[SCHUBERT_SIDE, OPPOSITE_SIDE].index)
                    for c in comps:
                        if c.source == SCHUBERT_SIDE:
                            assert c.pair.v == v
                            assert c.pair.w <= w and c.pair.w != w
                        else:
                            assert c.pair.w == w
                            assert v <= c.pair.v and c.pair.v != v


def test_no_function_has_an_lru_cache():
    # nothing is memoized but the minimal pair, on its context, so nothing
    # outlives its objects in a global cache
    import richgit

    for info in pkgutil.iter_modules(richgit.__path__, "richgit."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            members = vars(obj).values() if isinstance(obj, type) else ()
            for fn in (obj, *members):
                assert not hasattr(fn, "cache_info"), (module.__name__, fn)


def test_components_are_the_walks():
    # the opposite side is the Schubert walk read through iota on both ends
    for ctx in all_small_ctxs(10):
        n = ctx.n
        for u in enumerate_indices(ctx):
            opposite = tuple(_iota(c, n) for c in _schubert_walk(_iota(u.entries, n)))
            for public, walk in (
                (schubert_singular_components, _schubert_walk(u.entries)),
                (opposite_singular_components, opposite),
            ):
                assert type(walk) is tuple
                comps = public(u)
                assert comps == tuple(_index(c, ctx) for c in walk)
                assert all(c.ctx == ctx for c in comps)
                if comps:
                    # a new tuple on each call: nothing is memoized
                    assert public(u) is not comps


def test_analyze_and_census_call_no_walk(monkeypatch):
    # the verdicts come from the clauses on entries; only reading a
    # report's components walks, once per side.  oracle binds
    # _schubert_walk under its own name, so census's oracle sweep still runs.
    walked = []

    def counted(e):
        walked.append(e)
        return _schubert_walk(e)

    monkeypatch.setattr(singular, "_schubert_walk", counted)
    rep = census(G49)
    assert rep.total_pairs == 14 * 14
    pairs = (
        ((1, 3, 5, 7), (3, 5, 7, 9)),
        ((1, 3, 4, 6), (5, 7, 8, 9)),
        ((1, 2, 6, 7), (3, 6, 7, 9)),
    )
    reports = [analyze(v, w, G49) for v, w in pairs]
    assert {r.verdict for r in reports} == {"SMOOTH", "SINGULAR", "EMPTY_QUOTIENT"}
    assert walked == []
    assert all(r.components for r in reports)
    assert len(walked) == 2 * len(reports)


def test_analyze_retains_nothing():
    # 2,000 seeded pairs of raw tuples in G(9,20), with about 7,700 kept
    # components: nothing outlives the reports.  A global side cache
    # would keep the walks (4.7 MB on these pairs).
    ctx = GrassCtx(9, 20)
    rng = random.Random(2020)
    pairs = []
    for _ in range(2000):
        a, b = sorted(rng.sample(range(1, 21), 9)), sorted(rng.sample(range(1, 21), 9))
        pairs.append((tuple(map(min, a, b)), tuple(map(max, a, b))))
    analyze(*pairs[0], ctx)  # fills ctx's minimal-pair memo outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        components = 0
        for v, w in pairs:
            components += len(analyze(v, w, ctx).components)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert components > 5000
    assert retained < 1024


def test_index_slots_are_its_fields():
    # an index holds its entries and context and no memo
    assert GrassIndex.__match_args__ == ("entries", "ctx")
    slots = [name for cls in GrassIndex.__mro__ for name in getattr(cls, "__slots__", ())]
    assert slots == ["entries", "ctx"]
