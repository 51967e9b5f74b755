from itertools import combinations_with_replacement

import pytest

from richgit import (
    BoxedPartition,
    GrassCtx,
    GrassError,
    RichardsonId,
    complement_index,
    enumerate_indices,
    from_partition,
    length,
    render_skew,
    schubert_singular_components,
    to_partition,
)

from helpers import G49, all_small_ctxs, idx, runs


def part(values, ctx=G49):
    return BoxedPartition(tuple(values), ctx)


def valleys(p):
    """Rows j (1-based, from the bottom) with parts[j] > parts[j-1] >= 1."""
    return tuple(
        j for j in range(2, len(p.parts) + 1) if p.parts[j - 1] > p.parts[j - 2] >= 1
    )


def hooks(p):
    """(valley row, component diagram) pairs, one per Schubert singular component.

    The components come bottom valley first, so they pair up with the
    valley rows in order.
    """
    comps = schubert_singular_components(from_partition(p))
    rows = valleys(p)
    assert len(comps) == len(rows)
    return [(row, to_partition(c)) for row, c in zip(rows, comps)]


def all_partitions(ctx):
    width = ctx.n - ctx.k
    return [
        BoxedPartition(parts, ctx)
        for parts in combinations_with_replacement(range(width + 1), ctx.k)
    ]


class TestPartitionConversion:
    @pytest.mark.parametrize(
        "w,parts",
        [
            ((3, 5, 7, 9), (2, 3, 4, 5)),
            ((1, 2, 3, 4), (0, 0, 0, 0)),
            ((2, 4, 5, 7), (1, 2, 2, 3)),
        ],
    )
    def test_to_partition(self, w, parts):
        assert to_partition(idx(w)).parts == parts

    @pytest.mark.parametrize(
        "parts,w",
        [
            ((1, 1, 4, 5), (2, 3, 7, 9)),
            ((0, 0, 0, 0), (1, 2, 3, 4)),
            ((2, 2, 2, 5), (3, 4, 5, 9)),
        ],
    )
    def test_from_partition(self, parts, w):
        assert from_partition(part(parts)).entries == w

    def test_mutually_inverse_bijection(self):
        for ctx in all_small_ctxs(9):
            seen = set()
            for w in enumerate_indices(ctx):
                p = to_partition(w)
                assert from_partition(p) == w
                seen.add(p.parts)
            # every valid partition is hit exactly once
            assert seen == {p.parts for p in all_partitions(ctx)}

    def test_invalid_partitions_rejected(self):
        with pytest.raises(GrassError):
            part((3, 2, 2, 1))  # decreasing
        with pytest.raises(GrassError):
            part((0, 0, 0, 6))  # wider than the rectangle
        with pytest.raises(GrassError, match="row 3"):
            part((0, 1, 1.5, 2))  # within every bound, so only the type check stops it
        with pytest.raises(GrassError, match="^row 2 has 1 boxes, fewer than row 1$"):
            BoxedPartition((2, 1, 3), GrassCtx(3, 7))


class TestComplement:
    def test_reference_values(self):
        assert complement_index(idx((2, 4, 5, 7))).entries == (3, 5, 6, 8)
        assert complement_index(idx((1, 2, 3, 4))).entries == (6, 7, 8, 9)
        assert complement_index(idx((1, 3, 7, 9))).entries == (1, 3, 7, 9)

    def test_involution(self):
        for ctx in all_small_ctxs(9):
            for v in enumerate_indices(ctx):
                assert complement_index(complement_index(v)) == v

    def test_order_antiisomorphism(self):
        for ctx in all_small_ctxs(9):
            elems = enumerate_indices(ctx)
            for a in elems:
                ca = complement_index(a)
                for b in elems:
                    assert (a <= b) == (complement_index(b) <= ca)

    def test_diagram_flip(self):
        for ctx in all_small_ctxs(9):
            width = ctx.n - ctx.k
            for v in enumerate_indices(ctx):
                p = to_partition(v).parts
                q = to_partition(complement_index(v)).parts
                for i in range(ctx.k):
                    assert q[i] + p[ctx.k - 1 - i] == width


class TestValleys:
    def test_staircase(self):
        p = part((2, 3, 4, 5))
        assert valleys(p) == (2, 3, 4)
        assert [q.parts for _, q in hooks(p)] == [(1, 1, 4, 5), (2, 2, 2, 5), (2, 3, 3, 3)]

    def test_rectangle(self):
        assert hooks(part((3, 3, 3, 3))) == []
        assert hooks(part((0, 0, 0, 0))) == []

    def test_zeros_then_jump(self):
        # the zero/nonzero boundary is not a valley
        assert hooks(part((0, 0, 2, 2))) == []
        got = [(row, q.parts) for row, q in hooks(part((1, 1, 4, 5)))]
        assert got == [(3, (0, 0, 0, 5)), (4, (1, 1, 3, 3))]

    def test_counts_runs(self):
        for ctx in all_small_ctxs(9):
            for p in all_partitions(ctx):
                assert len(hooks(p)) == max(len(runs(p)) - 1, 0)


def diagram_cells(p):
    return {(i, c) for i, rows in enumerate(p.parts, start=1) for c in range(1, rows + 1)}


class TestRemoveHook:
    @pytest.mark.parametrize(
        "valley,expected",
        [(2, (1, 1, 4, 5)), (3, (2, 2, 2, 5)), (4, (2, 3, 3, 3))],
    )
    def test_staircase_hooks(self, valley, expected):
        assert dict(hooks(part((2, 3, 4, 5))))[valley].parts == expected

    def test_strictly_smaller_rowwise(self):
        for ctx in all_small_ctxs(9):
            for p in all_partitions(ctx):
                for _, q in hooks(p):
                    assert all(a <= b for a, b in zip(q.parts, p.parts))
                    assert q.parts != p.parts

    def test_removed_cells_form_the_hook(self):
        # cell-set difference: the column below the valley plus the tail of
        # the valley row, q_i + (p_{i+1} - p_i) + 1 boxes in run terms
        for ctx in all_small_ctxs(9):
            for p in all_partitions(ctx):
                rl = runs(p)
                boundaries = {}
                row = p.parts.count(0)
                for i in range(len(rl)):
                    if i > 0:
                        boundaries[row + 1] = i - 1  # valley row -> lower run index
                    row += rl[i][1]
                for valley, q in hooks(p):
                    removed = diagram_cells(p) - diagram_cells(q)
                    i = boundaries[valley]
                    (pi, qi), (pnext, _) = rl[i], rl[i + 1]
                    assert len(removed) == qi + (pnext - pi) + 1
                    assert sum(p.parts) - sum(q.parts) == len(removed)
                    column = {(t, pi) for t in range(valley - qi, valley)}
                    tail = {(valley, c) for c in range(pi, pnext + 1)}
                    assert removed == column | tail


class TestRenderSkew:
    def test_reference_grid(self):
        rid = RichardsonId(idx((2, 4, 5, 7)), idx((3, 5, 7, 9)))
        assert render_skew(rid) == "vvv##\nvv##.\nvv#..\nv#..."

    def test_point_is_blank(self):
        rid = RichardsonId(idx((1, 2, 3, 4)), idx((1, 2, 3, 4)))
        assert render_skew(rid) == "\n".join(["....."] * 4)

    def test_full_rectangle(self):
        rid = RichardsonId(idx((1, 2, 3, 4)), idx((6, 7, 8, 9)))
        assert render_skew(rid) == "\n".join(["#####"] * 4)

    def test_cell_counts(self):
        for ctx in all_small_ctxs(7):
            elems = enumerate_indices(ctx)
            for v in elems:
                for w in elems:
                    if not v <= w:
                        continue
                    rid = RichardsonId(v, w)
                    grid = render_skew(rid)
                    assert grid.count("v") == length(v)
                    assert grid.count("#") == length(w) - length(v)
                    lines = grid.split("\n")
                    assert len(lines) == ctx.k
                    assert all(len(line) == ctx.n - ctx.k for line in lines)

