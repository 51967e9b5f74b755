import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import richgit.oracle
from helpers import LOADED, SRC, assert_same_text, census_text, cold_run, coprime_ctxs
from richgit import CensusReport, GrassCtx, PatternMismatch, census, make_index, verify
from richgit.cli import _census_text, main, to_json
from richgit.oracle import ConsistencyFailure


PAIRS_CAP = "admissible pairs; a census analyzes at most 1,048,576"
CELLS_CAP = "side cells; a census checks at most 16,777,216"


# 10**2200 as refusal messages write it: leading and trailing digits, then the length
BIG = 10**2200
BIG_TEXT = "100000...000000 (2201 digits)"


def census_argv(k, n, fmt="text"):
    return ["census", "-k", str(k), "-n", str(n), "--format", fmt]


def guard_argv(k, n, fmt):
    """census of G(k,n) in format fmt, or verify --ctx k,n when fmt is "verify"."""
    return ["verify", "--ctx", f"{k},{n}"] if fmt == "verify" else census_argv(k, n, fmt)


def refuse_analyze(*args):
    raise AssertionError("a census guard let the work start")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMinimal:
    def test_text_golden(self, capsys):
        code, out, err = run_cli(capsys, "minimal", "-k", "4", "-n", "9")
        assert code == 0
        assert out == "w_min = (3,5,7,9)  v_min = (1,3,5,7)\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "minimal", "-k", "2", "-n", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data == {"k": 2, "n": 5, "w_min": [3, 5], "v_min": [1, 3], "a": [3, 5]}


class TestAnalyze:
    def test_json_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "analyze", "-k", "4", "-n", "9",
            "--v", "1,2,3,5", "--w", "3,5,7,9", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "SINGULAR"
        assert data["smooth_by_components"] is False
        assert data["smooth_by_pattern"] is False
        assert data["has_semistable"] is True
        assert {
            "k", "n", "v", "w", "nonempty", "has_semistable", "dimension",
            "components", "smooth_by_components", "smooth_by_pattern", "verdict",
        } == set(data)
        assert all(
            set(c) == {"v", "w", "source", "has_semistable"} for c in data["components"]
        )

    def test_not_coprime_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "analyze", "-k", "4", "-n", "6", "--v", "1,2,3,4", "--w", "3,4,5,6",
        )
        assert code == 2
        assert out == ""
        assert "error: k=4 and n=6 are not coprime" in err

    def test_invalid_tuple_exit_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "analyze", "-k", "4", "-n", "9", "--v", "3,5,5,9", "--w", "3,5,7,9",
        )
        assert code == 2
        assert "position 3" in err

    def test_empty_pair_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "analyze", "-k", "4", "-n", "9", "--v", "4,5,6,7", "--w", "3,5,7,9",
        )
        assert code == 2
        assert "empty" in err

    def test_json_round_trip_idempotent(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "analyze", "-k", "4", "-n", "9",
            "--v", "2,4,5,7", "--w", "3,5,7,9", "--format", "json",
        )
        assert to_json(json.loads(out)) == out

    def test_unparseable_tuple_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "-k", "4", "-n", "9", "--v", "1,2,x", "--w", "3,5,7,9"])
        assert exc.value.code == 2


class TestRenderAndSingular:
    def test_render_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "render", "-k", "4", "-n", "9", "--v", "2,4,5,7", "--w", "3,5,7,9"
        )
        assert code == 0
        assert out == "vvv##\nvv##.\nvv#..\nv#...\n"

    def test_singular_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "singular", "-k", "4", "-n", "9", "--v", "2,4,5,7", "--w", "3,5,7,9"
        )
        assert code == 0
        assert out == (
            "singular locus of X^(2,4,5,7)_(3,5,7,9) in G(4,9):\n"
            "  SCHUBERT_SIDE v=(2,4,5,7) w=(3,4,5,9)\n"
            "  SCHUBERT_SIDE v=(2,4,5,7) w=(3,5,6,7)\n"
            "  OPPOSITE_SIDE v=(2,4,7,8) w=(3,5,7,9)\n"
        )

    def test_singular_works_without_coprimality(self, capsys):
        # the diagram machinery has no gcd precondition
        code, out, _ = run_cli(
            capsys, "singular", "-k", "4", "-n", "6", "--v", "1,2,3,4", "--w", "3,4,5,6"
        )
        assert code == 0
        assert out == (
            "singular locus of X^(1,2,3,4)_(3,4,5,6) in G(4,6):\n"
            "  (empty: the variety is smooth)\n"
        )


def pretty(data):
    """JSON as the CLI writes it, serialized here rather than by cli.to_json."""
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.text()
    | st.sampled_from(["", "\x00\x1f\x7f", "\\\"/\b\f\n\r\t", "é€😀", "\ud800", "\u2028"])
)


def json_trees(leaves):
    return st.recursive(
        leaves,
        lambda kids: st.lists(kids, max_size=5)
        | st.dictionaries(st.text(max_size=4), kids, max_size=5)
        # short lists of small ints, where a bool or None may stand among equal ints
        | st.lists(st.integers(-3, 3) | st.sampled_from([True, False, None]), min_size=1, max_size=4),
        max_leaves=30,
    )


JSON_TREES = json_trees(JSON_SCALARS)
INTS = [3, 5, 7, 9]

# hand-built census products: from a few index objects of G(3,7), each
# drawn as itself or as an equal but distinct copy
G37 = GrassCtx(3, 7)
POOL = [make_index(e, G37) for e in [(1, 2, 4), (1, 3, 5), (2, 4, 6), (3, 5, 7)]]
POOL_INDICES = st.sampled_from(POOL).flatmap(
    lambda i: st.sampled_from([i, make_index(i.entries, G37)])
)
ROWS = st.lists(st.tuples(POOL_INDICES, st.booleans(), st.booleans()), max_size=6)
WS = st.lists(POOL_INDICES, max_size=6)
A, B, C = POOL[:3]
A_TF, A_FT = (A, True, False), (A, False, True)


class LoudInt(int):
    """An int subclass whose repr and str differ from int's; json writes int.__repr__."""

    def __repr__(self):
        return f"LoudInt({int(self)})"

    __str__ = __repr__


def census_report(rows, ws):
    """A CensusReport of G(3,7) built by hand around the product rows x ws."""
    n = len(rows) * len(ws)
    return CensusReport(G37, n, 0, n, tuple(rows), tuple(ws), (), (), ())


# census_report's examples for both writers: no rows; rows with no ws; one v
# object with mixed flags, not v-major; an equal but distinct v; a v that is
# some w; int flags after equal bools, which to_json writes as ints
HAND_BUILT = [
    census_report([], [B, C]),
    census_report([A_TF, A_FT], []),
    census_report([A_TF, A_FT, (B, True, False), A_TF], [B, C]),
    census_report(
        [A_TF, (make_index(A.entries, G37), True, False)], [B, make_index(B.entries, G37)]
    ),
    census_report([(B, False, True), A_TF, (C, True, True)], [A, B]),
    census_report([A_TF, (A, 1, 0)], [B, C]),
]


def hand_built(test):
    """test(rep) over drawn census_report(ROWS, WS), and every HAND_BUILT report."""
    for rep in HAND_BUILT:
        test = example(rep)(test)
    return settings(max_examples=200, deadline=None, derandomize=True, database=None)(
        given(st.builds(census_report, ROWS, WS))(test)
    )


class TestToJson:
    """cli.to_json writes its own bytes; pretty() above is the stdlib reference."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(JSON_TREES)
    @example([])
    @example({})
    @example({"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}]})
    @example([-1, 0, 10**30, -(10**30)])
    @example(INTS)
    # the same int list at three depths, each written at its own indent
    @example({"a": INTS, "b": [INTS, [INTS]], "c": {"d": INTS}})
    # lists equal to [1, 0] and [3, 5] under ==, but bools and None are not ints
    @example([[1, 0], [True, False], [3, 5], [3, None], [None, 5]])
    @example({"\u00e9": "\x00", "": "\ud83d\ude00", "A": "a\\b\"c"})
    # an int subclass among exact ints, written as int.__repr__ writes it
    @example([1, LoudInt(2), 3, [LoudInt(-4)], LoudInt(5)])
    def test_matches_stdlib(self, data):
        assert to_json(data) == pretty(data)

    @pytest.mark.parametrize(
        "data",
        [1.5, [0.0], {"a": float("nan")}, {1, 2}, [frozenset()], (1, 2), {1: "a"},
         {"a": 1, 2: "b"}, {None: 1}, {True: 1}, b"x", object(),
         PatternMismatch(A, B, True, False)],
        ids=["float", "float-in-list", "nan", "set", "frozenset", "tuple", "int-key",
             "mixed-keys", "none-key", "bool-key", "bytes", "object", "record"],
    )
    def test_other_types_raise(self, data):
        with pytest.raises(TypeError):
            to_json(data)

    @hand_built
    def test_hand_built_census(self, rep):
        assert to_json(rep._tree()) == pretty(rep.to_dict())

    @pytest.mark.parametrize(
        "ctx", [*coprime_ctxs(12), GrassCtx(5, 14), GrassCtx(7, 16)], ids=str
    )
    def test_census_bytes(self, capsys, ctx):
        out = run_cli(capsys, *census_argv(ctx.k, ctx.n, "json"))[1]
        assert_same_text(out, pretty(census(ctx).to_dict()))

    def test_census_g716_digest(self, capsys):
        out = run_cli(capsys, *census_argv(7, 16, "json"))[1]
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "e4fdb131d00d05eb0e2779ef900161dc1b3b0047c1a490ad5b60a3dbbff6bc33"

    def test_census_g716_csv_digest(self, capsys):
        # 511,225 rows: the per-pair reference stops at G(5,14)
        out = run_cli(capsys, *census_argv(7, 16, "csv"))[1]
        assert (out.count("\n"), len(out)) == (511_226, 29_128_541)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "bba5656da7ea03ac9e8344bc77c42c7d6e25b78ccd9369801e55122fbf89a974"

    def test_verify_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 1
        assert_same_text(out, pretty(verify().to_dict()))

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (census_argv(5, 14, "json"), '"smooth_by_pattern": false'),
            (["verify", "--format", "json"], '"smooth_by_pattern": false'),
            (census_argv(5, 14), " components=true pattern=false\n"),
            (["verify"], " pattern / 0 oracle mismatch(es)]\n"),
        ],
        ids=["census", "verify", "census-text", "verify-text"],
    )
    def test_json_builds_no_record_dict(self, capsys, monkeypatch, argv, shown):
        # every writer reads the report's rows and ws and builds no PatternMismatch
        expected = run_cli(capsys, *argv)
        assert shown in expected[1]

        def refuse(*args):
            raise AssertionError("the CLI built a PatternMismatch")

        monkeypatch.setattr(PatternMismatch, "__init__", refuse)
        monkeypatch.setattr(PatternMismatch, "_trusted", staticmethod(refuse))
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == expected[::2]
        assert_same_text(out, expected[1])


PAIR_COMMANDS = ("analyze", "singular", "render")
PAIR = ["-k", "4", "-n", "9", "--v", "2,4,5,7", "--w", "3,5,7,9"]
SMOOTH_PAIR = ["-k", "4", "-n", "9", "--v", "1,2,3,4", "--w", "6,7,8,9"]
NOT_COPRIME_PAIR = ["-k", "4", "-n", "6", "--v", "1,2,3,4", "--w", "3,4,5,6"]
V, W = [2, 4, 5, 7], [3, 5, 7, 9]

# Exact output of the singular, render and minimal commands, which no benchmark
# workload runs, and of analyze's text, as (argv, stdout): exit 0, no stderr.
# TestMinimal and TestRenderAndSingular pin the remaining text outputs.
CLI_GOLDENS = {
    "singular-json": (
        ["singular", *PAIR, "--format", "json"],
        pretty(
            {
                "k": 4, "n": 9, "v": V, "w": W,
                "components": [
                    {"v": V, "w": [3, 4, 5, 9], "source": "SCHUBERT_SIDE"},
                    {"v": V, "w": [3, 5, 6, 7], "source": "SCHUBERT_SIDE"},
                    {"v": [2, 4, 7, 8], "w": W, "source": "OPPOSITE_SIDE"},
                ],
            }
        ),
    ),
    "singular-smooth-text": (
        ["singular", *SMOOTH_PAIR],
        "singular locus of X^(1,2,3,4)_(6,7,8,9) in G(4,9):\n"
        "  (empty: the variety is smooth)\n",
    ),
    "singular-smooth-json": (
        ["singular", *SMOOTH_PAIR, "--format", "json"],
        pretty({"k": 4, "n": 9, "v": [1, 2, 3, 4], "w": [6, 7, 8, 9], "components": []}),
    ),
    "singular-not-coprime-json": (
        ["singular", *NOT_COPRIME_PAIR, "--format", "json"],
        pretty({"k": 4, "n": 6, "v": [1, 2, 3, 4], "w": [3, 4, 5, 6], "components": []}),
    ),
    "render-json": (
        ["render", *PAIR, "--format", "json"],
        pretty({"k": 4, "n": 9, "v": V, "w": W, "grid": ["vvv##", "vv##.", "vv#..", "v#..."]}),
    ),
    "minimal-json": (
        ["minimal", "-k", "4", "-n", "9", "--format", "json"],
        pretty({"k": 4, "n": 9, "w_min": [3, 5, 7, 9], "v_min": [1, 3, 5, 7], "a": [3, 5, 7, 9]}),
    ),
    "analyze-text": (
        ["analyze", "-k", "4", "-n", "9", "--v", "1,2,3,5", "--w", "3,5,7,9"],
        "pair: v=(1,2,3,5) w=(3,5,7,9) in G(4,9)\n"
        "nonempty: true\n"
        "has_semistable: true\n"
        "dimension: 13\n"
        "components:\n"
        "  SCHUBERT_SIDE v=(1,2,3,5) w=(2,3,7,9) has_semistable=false\n"
        "  SCHUBERT_SIDE v=(1,2,3,5) w=(3,4,5,9) has_semistable=false\n"
        "  SCHUBERT_SIDE v=(1,2,3,5) w=(3,5,6,7) has_semistable=false\n"
        "  OPPOSITE_SIDE v=(1,2,5,6) w=(3,5,7,9) has_semistable=true\n"
        "smooth_by_components: false\n"
        "smooth_by_pattern: false\n"
        "verdict: SINGULAR\n",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_golden_bytes(capsys, name):
    argv, expected = CLI_GOLDENS[name]
    assert run_cli(capsys, *argv) == (0, expected, "")


@pytest.mark.parametrize("command", PAIR_COMMANDS)
@pytest.mark.parametrize(
    "args, line",
    [
        # the context is checked first, then v, then w, then the pair
        (["-k", "4", "-n", "4", "--v", "0", "--w", "0"], "need 1 <= k < n, got k=4 n=4"),
        (["-k", "4", "-n", "9", "--v", "1,2", "--w", "0"], "expected 4 entries for G(4,9), got 2"),
        (
            ["-k", "4", "-n", "9", "--v", "1,2,3,4", "--w", "3,3,5,6"],
            "entry 3 at position 2 does not exceed 3",
        ),
        (
            ["-k", "4", "-n", "9", "--v", "4,5,6,7", "--w", "3,5,7,9"],
            "v=(4,5,6,7) is not below w=(3,5,7,9); X^v_w is empty",
        ),
    ],
    ids=["ctx", "v", "w", "pair"],
)
def test_pair_command_error_order(capsys, command, args, line):
    assert run_cli(capsys, command, *args) == (2, "", f"error: {line}\n")


def test_readme_cli_examples(capsys):
    # each `richgit ...` line of README "## CLI" runs; a `# ...` line right
    # after one is its output: exact, or pieces between "..." found in order
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").split("## CLI", 1)[1]
    lines = re.search(r"```sh\n(.*?)```", section, re.S).group(1).splitlines()
    ran, checked = [], []
    for line, after in zip(lines, lines[1:] + [""]):
        if not line.startswith("richgit "):
            continue
        argv = line.split("#", 1)[0].split()[1:]
        code, out, err = run_cli(capsys, *argv)
        # the default verify covers G(3,8), where the pattern shortcut diverges
        assert (code, err) == ((1 if argv == ["verify"] else 0), ""), line
        ran.append(argv[0])
        if after.startswith("# "):
            pieces = after[2:].split("...")
            if len(pieces) == 1:
                assert out == pieces[0] + "\n"
            else:
                assert re.search(".*".join(re.escape(p.strip()) for p in pieces), out, re.S)
            checked.append(argv[0])
    assert ran == ["minimal", "analyze", "singular", "render", "census", "verify", "verify"]
    assert checked == ["minimal", "analyze"]


class TestCensus:
    def test_csv_golden(self, capsys):
        code, out, _ = run_cli(capsys, "census", "-k", "2", "-n", "3", "--format", "csv")
        assert code == 0
        assert out == (
            "k,n,v,w,dimension,has_semistable,smooth\n"
            '2,3,"1,2","2,3",2,true,true\n'
        )

    def test_csv_quoting(self, capsys):
        # csv.writer's QUOTE_MINIMAL quotes a field iff it holds a comma:
        # G(1,7)'s one-entry indices stay bare, G(4,9)'s are quoted
        code, out, _ = run_cli(capsys, *census_argv(1, 7, "csv"))
        assert (code, out) == (0, "k,n,v,w,dimension,has_semistable,smooth\n1,7,1,7,6,true,true\n")
        code, out, _ = run_cli(capsys, *census_argv(4, 9, "csv"))
        lines = out.splitlines()
        assert lines[1:3] == [
            '4,9,"1,2,3,4","3,5,7,9",14,true,true',
            '4,9,"1,2,3,4","3,5,8,9",15,true,true',
        ]
        assert all(line.count('"') == 4 for line in lines[1:])
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv.reader(lines))
        assert buf.getvalue() == out

    def test_csv_lexicographic_order(self, capsys):
        code, out, _ = run_cli(capsys, "census", "-k", "2", "-n", "5", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,n,v,w,dimension,has_semistable,smooth"
        rows = [line.split(",", 2)[2] for line in lines[1:]]
        assert rows == sorted(rows)
        assert len(rows) == 4

    @pytest.mark.parametrize("k,n", [(3, 8), (4, 9)])
    def test_csv_rows_match_census(self, capsys, k, n):
        code, out, _ = run_cli(capsys, "census", "-k", str(k), "-n", str(n), "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        rep = census(GrassCtx(k, n))
        assert len(rows) == rep.total_pairs
        assert sum(row["smooth"] == "true" for row in rows) == rep.smooth_count
        pairs = [
            (tuple(map(int, row["v"].split(","))), tuple(map(int, row["w"].split(","))))
            for row in rows
        ]
        assert pairs == sorted(set(pairs))

    def test_csv_not_coprime(self, capsys):
        code, out, err = run_cli(capsys, "census", "-k", "2", "-n", "4", "--format", "csv")
        assert code == 2
        assert out == ""
        assert "not coprime" in err

    def test_json_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "census", "-k", "4", "-n", "9", "--format", "json")
        assert to_json(json.loads(out)) == out

    def test_text_golden(self, capsys):
        code, out, _ = run_cli(capsys, "census", "-k", "2", "-n", "5")
        assert code == 0
        assert out == (
            "census of G(2,5):\n"
            "  total_pairs: 4\n"
            "  smooth_count: 4\n"
            "  singular_count: 0\n"
            "  pattern mismatches: 0\n"
            "  oracle mismatches: 0\n"
        )

    @pytest.mark.parametrize("ctx", [*coprime_ctxs(12), GrassCtx(5, 14)], ids=str)
    def test_text_matches_reference(self, capsys, ctx):
        code, out, _ = run_cli(capsys, *census_argv(ctx.k, ctx.n))
        assert code == 0
        assert_same_text(out, census_text(census(ctx)))

    @hand_built
    def test_hand_built_text(self, rep):
        assert _census_text(rep) == census_text(rep)

    def test_text_g716_digest(self, capsys):
        # 21,574 lines: the per-line reference stops at G(5,14)
        out = run_cli(capsys, *census_argv(7, 16))[1]
        assert (out.count("\n"), len(out)) == (21_574, 1_635_956)
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "7a2ad89a097759d59a185ce616f10bf2b6204f7f75cdd44d6a46de2b864cae8c"

    def test_text_consistency_failures(self):
        failures = (ConsistencyFailure("A", B, True), ConsistencyFailure("B", A, False))
        rep = CensusReport(G37, 2, 0, 2, (A_TF,), (B, C), (), failures, ())
        assert _census_text(rep) == census_text(rep)
        assert _census_text(rep).endswith(
            "  consistency failures: 2\n"
            "    A at (1,3,5): census=true oracle=false\n"
            "    B at (1,2,4): census=false oracle=true\n"
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_pair_guard_exit_2(self, capsys, monkeypatch, fmt):
        # G(9,20) has 70,526,404 pairs; fail at once if any were analyzed
        monkeypatch.setattr(richgit.oracle, "analyze", refuse_analyze)
        code, out, err = run_cli(capsys, "census", "-k", "9", "-n", "20", "--format", fmt)
        assert code == 2
        assert out == ""
        assert "G(9,20) has 70,526,404 admissible pairs" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_sweep_guard_exit_2(self, capsys, monkeypatch, fmt):
        # named for the deleted oracle-sweep cell guard: at n = k+1 side cells
        # equal its cells, so G(4096,4097), the first G(k,k+1) past the bound,
        # is refused in text and JSON as before
        monkeypatch.setattr(richgit.oracle, "analyze", refuse_analyze)
        monkeypatch.setattr(richgit.oracle, "_side_check", refuse_analyze)
        code, out, err = run_cli(capsys, *census_argv(4096, 4097, fmt))
        assert code == 2
        assert out == ""
        assert "G(4096,4097) has 16,781,312 side cells" in err

    @pytest.mark.parametrize("fmt", ["text", "json", "csv", "verify"])
    @pytest.mark.parametrize(
        "k, n, line",
        [
            (9, 20, f"G(9,20) has 70,526,404 {PAIRS_CAP}"),
            (3, 3000001, f"G(3,3000001) has more than 1,048,576 {PAIRS_CAP}"),
            (3000000, 3000001, f"G(3000000,3000001) has 9,000,003,000,000 {CELLS_CAP}"),
            (1, BIG + 1, f"G(1,100000...000001 (2201 digits)) has more than 16,777,216 {CELLS_CAP}"),
        ],
        ids=["9,20", "3,3000001", "3000000,3000001", "1,10^2200+1"],
    )
    def test_refusal_matrix(self, capsys, monkeypatch, fmt, k, n, line):
        # every format refuses the same contexts with the same line, before any work
        monkeypatch.setattr(richgit.oracle, "analyze", refuse_analyze)
        monkeypatch.setattr(richgit.oracle, "_side_check", refuse_analyze)
        code, out, err = run_cli(capsys, *guard_argv(k, n, fmt))
        assert (code, out, err) == (2, "", f"error: {line}\n")
        assert len(err.encode()) <= 128

    @pytest.mark.parametrize("fmt", ["text", "json", "csv", "verify"])
    @pytest.mark.parametrize(
        "k, n", [(2, 259), (4095, 4096), (1, 2**24)], ids=["2,259", "4095,4096", "1,2^24"]
    )
    def test_admission_matrix(self, capsys, fmt, k, n):
        # G(1,2**24) has exactly MAX_SIDE_CELLS side cells, G(4095,4096) just
        # fewer; verify of G(2,259) runs and exits 1, for the pattern
        # shortcut disagrees there at 16,254 pairs
        code, out, err = run_cli(capsys, *guard_argv(k, n, fmt))
        assert (code, err) == (int(fmt == "verify" and k == 2), "")
        assert out

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_each_census_path_checks_once(self, capsys, monkeypatch, fmt):
        calls = []
        real = richgit.oracle._check_census

        def counting(ctx):
            calls.append(ctx)
            return real(ctx)

        monkeypatch.setattr(richgit.oracle, "_check_census", counting)
        assert main(census_argv(4, 9, fmt)) == 0
        assert calls == [GrassCtx(4, 9)]
        census(GrassCtx(3, 8))
        assert calls == [GrassCtx(4, 9), GrassCtx(3, 8)]
        # verify checks every context up front, and its censuses do not
        # check again; the pattern shortcut diverges in G(3,8), so neither passes
        del calls[:]
        assert not verify([GrassCtx(3, 8), GrassCtx(4, 9)]).passed
        assert calls == [GrassCtx(3, 8), GrassCtx(4, 9)]
        del calls[:]
        assert main(["verify", "--ctx", "3,8", "--ctx", "4,9"]) == 1
        assert calls == [GrassCtx(3, 8), GrassCtx(4, 9)]

    @pytest.mark.parametrize(
        "argv",
        [
            ["census", "-k", "3", "-n", "3000001", "--format", "csv"],
            ["census", "-k", "3", "-n", "3000001", "--format", "json"],
            ["census", "-k", "3", "-n", "3000001"],
            ["verify", "--ctx", "3,3000001"],
        ],
        ids=["csv", "json", "text", "verify"],
    )
    def test_gap_product_guard_exit_2(self, capsys, monkeypatch, argv):
        # named for the guard's old lower bound; C(n,2) already passes the cap here
        monkeypatch.setattr(richgit.oracle, "analyze", refuse_analyze)
        monkeypatch.setattr(richgit.oracle, "_side_check", refuse_analyze)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            "error: G(3,3000001) has more than 1,048,576 admissible pairs; "
            "a census analyzes at most 1,048,576\n"
        )

    @pytest.mark.parametrize(
        "argv, line",
        [
            (census_argv(9, 20), f"G(9,20) has 70,526,404 {PAIRS_CAP}"),
            (
                ["verify", "--ctx", "2,259", "--ctx", "4096,4097"],
                f"G(4096,4097) has 16,781,312 {CELLS_CAP}",
            ),
            (census_argv(3, 3000001), f"G(3,3000001) has more than 1,048,576 {PAIRS_CAP}"),
            (
                census_argv(49999, 100000, "csv"),
                f"G(49999,100000) has more than 1,048,576 {PAIRS_CAP}",
            ),
            (census_argv(4001, 8000), f"G(4001,8000) has more than 1,048,576 {PAIRS_CAP}"),
            (
                census_argv(1, BIG + 1),
                f"G(1,100000...000001 (2201 digits)) has more than 16,777,216 {CELLS_CAP}",
            ),
            (
                census_argv(3, 10**30 + 1),
                f"G(3,100000...000001 (31 digits)) has more than 1,048,576 {PAIRS_CAP}",
            ),
            (census_argv(2, BIG), f"k=2 and n={BIG_TEXT} are not coprime"),
            (["minimal", "-k", "2", "-n", str(BIG)], f"k=2 and n={BIG_TEXT} are not coprime"),
            (["verify", "--ctx", f"2,{BIG}"], f"k=2 and n={BIG_TEXT} are not coprime"),
            (census_argv(BIG, 3), f"need 1 <= k < n, got k={BIG_TEXT} n=3"),
            (
                ["analyze", "-k", "2", "-n", "5", "--v", f"1,{BIG}", "--w", "3,5"],
                f"entry {BIG_TEXT} at position 2 is outside [1, 5]",
            ),
        ],
        ids=[
            "9,20", "2,259", "3,3000001", "49999,100000", "4001,8000", "1,10^2200+1",
            "3,10^30+1", "2,10^2200", "minimal-2,10^2200", "verify-2,10^2200", "10^2200,3",
            "analyze-entry-10^2200",
        ],
    )
    def test_refusal_is_one_bounded_line(self, capsys, monkeypatch, argv, line):
        # a count is named only below 2**48, and k, n or an entry in full only up
        # to 20 digits (Python refuses to print ints of more than 4,300 digits)
        # G(2,259) is admitted, but verify starts no census of it while a later
        # context is refused
        monkeypatch.setattr(richgit.oracle, "analyze", refuse_analyze)
        monkeypatch.setattr(richgit.oracle, "_side_check", refuse_analyze)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {line}\n"
        assert len(err.encode()) <= 128

    def test_long_indices_csv(self, capsys):
        # G(1200,1201) has one pair, each index 1,200 entries long
        code, out, err = run_cli(capsys, "census", "-k", "1200", "-n", "1201", "--format", "csv")
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 2
        assert rows[1].startswith('1200,1201,"1,2,3,')

    def test_huge_k_csv_finishes(self):
        # G(4095,4096), the largest G(k,k+1) the side guard admits, has one
        # pair of two 4,095-entry indices; core's TestIntervals times the
        # enumeration of longer ones
        k = 4095
        root = Path(__file__).parent.parent
        done = subprocess.run(
            [sys.executable, "-m", "richgit.cli", *census_argv(k, k + 1, "csv")],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            timeout=30,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        header, row = done.stdout.decode().splitlines()
        assert header == "k,n,v,w,dimension,has_semistable,smooth"
        v = ",".join(map(str, range(1, k + 1)))
        w = ",".join(map(str, range(2, k + 2)))
        assert row == f'{k},{k + 1},"{v}","{w}",{k},true,true'

    def test_long_indices_text(self, capsys):
        code, out, err = run_cli(capsys, "census", "-k", "990", "-n", "991")
        assert (code, err) == (0, "")
        assert "  total_pairs: 1\n" in out

    def test_full_option_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["census", "-k", "4", "-n", "9", "--full"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --full" in capsys.readouterr().err


class TestVerify:
    def test_clean_context_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--ctx", "4,9", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert len(data["examples"]) == 4

    def test_divergent_context_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--ctx", "3,8")
        assert code == 1
        # one mismatch v times seven smooth ws
        assert "G(3,8): pairs=49 smooth=49 singular=0 [7 pattern / 0 oracle mismatch(es)]\n" in out
        assert "passed: false" in out

    def test_pair_guard_exit_2(self, capsys, monkeypatch):
        monkeypatch.setattr(richgit.oracle, "analyze", refuse_analyze)
        code, out, err = run_cli(capsys, "verify", "--ctx", "9,20")
        assert code == 2
        assert out == ""
        assert "G(9,20) has 70,526,404 admissible pairs" in err

    def test_every_context_checked_before_any_census(self, capsys, monkeypatch):
        # G(7,16) alone would run 511,225 analyze calls before G(9,20) is refused
        monkeypatch.setattr(richgit.oracle, "analyze", refuse_analyze)
        code, out, err = run_cli(capsys, "verify", "--ctx", "7,16", "--ctx", "9,20")
        assert code == 2
        assert out == ""
        assert "G(9,20) has 70,526,404 admissible pairs" in err

    def test_text_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--ctx", "2,3", "--ctx", "2,5")
        assert code == 0
        assert "G(2,3): pairs=1 smooth=1 singular=0 [ok]" in out
        assert "passed: true" in out


class TestOutFile:
    def test_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(
            ["minimal", "-k", "4", "-n", "9", "--format", "json", "--out", str(target)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["w_min"] == [3, 5, 7, 9]

    def test_unwritable_target_exit_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        code, out, err = run_cli(capsys, "minimal", "-k", "4", "-n", "9", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not target.exists()
        assert not target.parent.exists()


MALFORMED = st.sampled_from(["", ",", "1,,2", "1,2,", "x", "1.5", " ", "3,a", "0x3"])


@st.composite
def cli_argv(draw):
    """argv from a small grammar: the six commands, k and n up to 12, malformed values.

    About one value in ten is malformed; index tuples are mostly k-subsets of [1, n].
    """

    def value(text):
        return draw(MALFORMED) if draw(st.integers(0, 9)) == 0 else text

    def index(k, n):
        if draw(st.integers(0, 3)):
            xs = sorted(draw(st.permutations(range(1, max(n, 1) + 1)))[: max(k, 0)])
        else:
            xs = draw(st.lists(st.integers(-1, 13), max_size=6))
        return value(",".join(map(str, xs)))

    command = draw(st.sampled_from(("minimal", "census", "verify") + PAIR_COMMANDS))
    argv = [command]
    if command == "verify":
        for _ in range(draw(st.integers(1, 2))):
            k, n = draw(st.integers(-1, 12)), draw(st.integers(-1, 12))
            argv += ["--ctx", value(f"{k},{n}")]
    else:
        k, n = draw(st.integers(-1, 12)), draw(st.integers(-1, 12))
        argv += ["-k", value(str(k)), "-n", value(str(n))]
        if command in PAIR_COMMANDS:
            argv += ["--v", index(k, n), "--w", index(k, n)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cli_argv())
@example(["verify", "--ctx", "3,8", "--format", "json"])
@example(["analyze", "-k", "4", "-n", "9", "--v", "1,,2", "--w", "3,5,7,9"])
@example(["census", "-k", "4", "-n", "6", "--format", "csv"])
def test_exit_codes_and_error_lines(argv):
    # exit 0/1 write stdout only; exit 2 writes one error line, after argparse's
    # usage text when the argv does not parse
    out, err = io.StringIO(), io.StringIO()
    parsed = True
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code, parsed = exc.code, False
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert parsed or code == 2
    if code == 1:
        assert argv[0] == "verify"
    if code != 2:
        assert out and err == ""
        return
    assert out == ""
    if parsed:
        assert re.fullmatch(r"error: [^\n]+\n", err), err
    else:
        lines = err.splitlines()
        assert lines[0].startswith("usage: richgit")
        assert re.fullmatch(r"richgit( \w+)?: error: .+", lines[-1]), err
        assert sum("error:" in line for line in lines) == 1


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["analyze", "-k", "4", "-n", "9", "--v", "1," + "x" * 5000, "--w", "3,5,7,9"],
            "richgit analyze: error: argument --v: expected comma-separated integers, "
            "got '1,xxxx'...'xxxxxx' (5002 characters)",
        ),
        (
            ["census", "-k", "9" * 3000 + "x", "-n", "5"],
            "richgit census: error: argument -k: invalid int value: "
            "'999999'...'99999x' (3001 characters)",
        ),
        (
            ["verify", "--ctx", "1,2," + "1" * 4000],
            "richgit verify: error: argument --ctx: expected K,N, "
            "got '1,2,11'...'111111' (4004 characters)",
        ),
        (
            ["minimal", "-k", "2", "-n", "5" * 20 + "x"],
            "richgit minimal: error: argument -n: invalid int value: "
            "'555555'...'55555x' (21 characters)",
        ),
        # short values keep argparse's own wording, byte for byte
        (
            ["census", "-k", "x", "-n", "5"],
            "richgit census: error: argument -k: invalid int value: 'x'",
        ),
        (
            ["analyze", "-k", "4", "-n", "9", "--v", "1,,2", "--w", "3,5,7,9"],
            "richgit analyze: error: argument --v: expected comma-separated integers, "
            "got '1,,2'",
        ),
        (
            ["verify", "--ctx", "1,2,3"],
            "richgit verify: error: argument --ctx: expected K,N, got '1,2,3'",
        ),
        (
            ["minimal", "-k", "2", "-n", "5" * 19 + "x"],
            "richgit minimal: error: argument -n: invalid int value: "
            "'5555555555555555555x'",
        ),
    ],
    ids=["v-5000", "k-3001", "ctx-4004", "n-21", "k-x", "v-1,,2", "ctx-1,2,3", "n-20"],
)
def test_parse_errors_echo_a_bounded_argument(capsys, argv, line):
    # the offending text in full up to 20 characters, abbreviated past that
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: richgit")
    assert captured.err.splitlines()[-1] == line
    assert len(line.encode()) <= 128


BENCH_GOLDENS = json.loads(
    (Path(__file__).parent.parent / "perfbench" / "goldens.json").read_text()
)
GOLDEN_RUNS = [
    pytest.param(golden, id=prefix + name)
    for table, prefix in (("smoke_cli", ""), ("cli", "full-"))
    for name, golden in sorted(BENCH_GOLDENS[table].items())
]


@pytest.mark.parametrize("golden", GOLDEN_RUNS)
def test_smoke_golden_bytes(capsys, golden):
    # the benchmark checks these same digests, at the smoke sizes and at the
    # full sizes it times (G(5,14) has 4,171 mismatches in v-major order);
    # this keeps them in tier-1
    code, out, _ = run_cli(capsys, *golden["argv"])
    data = out.encode("utf-8")
    assert code == golden["exit"]
    assert len(data) == golden["bytes"]
    assert hashlib.sha256(data).hexdigest() == golden["sha256"]


def test_tracer_output_matches_untraced(capsys, tmp_path):
    # perfbench/trace_child.py patches GrassIndex.__post_init__/__le__ by name
    # and wraps the public functions; a rename would break the traced run
    root = Path(__file__).parent.parent

    def traced(*argv):
        code, out, _ = run_cli(capsys, *argv)
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "trace_child.py"), str(tmp_path / "trace"), "cli", *argv],
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            capture_output=True,
            timeout=300,
        )
        assert code == 0
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout == out.encode("utf-8")
        return json.loads((tmp_path / "trace.json").read_text())

    # the CLI validates the two tuples it parses
    meta = traced("analyze", "-k", "4", "-n", "9", "--v", "1,3,4,6", "--w", "3,5,7,9")
    assert meta["counts"]["core.index_validations"] == 2
    # a census validates no index: it derives every one from the minimal
    # pair, which is built trusted
    meta = traced("census", "-k", "3", "-n", "8", "--format", "json")
    assert meta["counts"]["core.index_validations"] == 0
    assert meta["counts"]["core.bruhat_cmp"] > 0
    # analyze reads the private side records, which the tracer does not
    # wrap: no public singular function runs under an analyze span, and
    # the public Richardson listing is never called
    with open(tmp_path / "trace.bin", "rb") as fh:
        names, parents = array("i"), array("i")
        names.fromfile(fh, meta["spans"])
        parents.fromfile(fh, meta["spans"])
    label = meta["names"]
    # a census runs no full sweep of I(k,n); its side check runs on entry
    # tuples, complement included, so under the census span no public
    # oracle, formula or complement runs (test_oracle.py::TestOracleSweep
    # counts its calls of the tuple oracle)
    assert "oracle.oracle_sweep" not in {label[n] for n in names}
    (census_span,) = [i for i, n in enumerate(names) if label[n] == "oracle.census"]
    assert {label[n] for n, p in zip(names, parents) if p == census_span} == {
        "core.indices_below", "core.indices_above", "criteria.analyze",
    }
    analyzes = [i for i, n in enumerate(names) if label[n] == "criteria.analyze"]
    children = {i: [] for i in analyzes}
    for n, p in zip(names, parents):
        if p in children:
            children[p].append(label[n])
    assert analyzes
    for kids in children.values():
        assert not [k for k in kids if k.startswith("singular.")], kids
    assert "singular.richardson_singular_components" not in {label[n] for n in names}


CRITERIA = ["core", "criteria", "diagrams", "singular"]
LIBRARY = sorted(CRITERIA + ["oracle"])
PAIR = ["-k", "4", "-n", "9", "--v", "1,3,4,6", "--w", "3,5,7,9"]


def test_cold_start_loads_no_dataclasses_inspect_or_json():
    # every CLI run pays for what importing richgit.cli and building its
    # parser load: no library module, and none of these
    result = cold_run(
        "import richgit.cli; richgit.cli.build_parser(); "
        "print(*sorted({'dataclasses', 'inspect', 'json', 'json.decoder'} & set(sys.modules)), "
        f"'|', {LOADED})"
    )
    assert result == ("| cli\n", "", 0)
    for path in sorted((SRC / "richgit").glob("*.py")):
        assert not re.search(r"^\s*(from|import)\s+dataclasses\b", path.read_text(), re.M), path


@pytest.mark.parametrize(
    "argv, status",
    [
        (census_argv(4, 9, "json"), 0),
        (["verify", "--format", "json"], 1),
        (["analyze", *PAIR, "--format", "json"], 0),
    ],
    ids=["census", "verify", "analyze"],
)
def test_json_loads_the_c_encoder_only(argv, status):
    # to_json needs one function of the json package, and takes it from
    # the C module json.encoder wraps; stdout is swallowed before the list
    result = cold_run(
        "import io, richgit.cli\n"
        f"sys.stdout = io.StringIO(); status = richgit.cli.main({argv!r})\n"
        "sys.stdout = sys.__stdout__\n"
        "print(status, *sorted(m for m in sys.modules if m.partition('.')[0] in ('json', '_json')))"
    )
    assert result == (f"{status} _json\n", "", 0)


@pytest.mark.parametrize(
    "argv, loaded, status",
    [
        pytest.param(["--help"], [], 0, id="help"),
        pytest.param(["analyze", "-k", "x", *PAIR[2:]], [], 2, id="bad-int"),
        pytest.param(["analyze", *PAIR[:6]], [], 2, id="no-w"),
        pytest.param(["verify", "--ctx", "5,4"], ["core"], 2, id="bad-ctx"),
        # coprimality is verify's check, so it has loaded oracle
        pytest.param(["verify", "--ctx", "2,4"], LIBRARY, 2, id="not-coprime"),
        *[
            pytest.param([command, *args, "--format", fmt], loaded, 0, id=f"{command}-{fmt}")
            for command, args, loaded in [
                ("analyze", PAIR, CRITERIA),
                ("minimal", PAIR[:4], CRITERIA),
                ("singular", PAIR, ["core", "diagrams", "singular"]),
                ("render", PAIR, ["core", "diagrams"]),
                ("census", PAIR[:4], LIBRARY),
                ("verify", ["--ctx", "4,9"], LIBRARY),
            ]
            for fmt in ("text", "json")
        ],
        pytest.param(["census", *PAIR[:4], "--format", "csv"], LIBRARY, 0, id="census-csv"),
    ],
)
def test_each_command_loads_only_its_modules(argv, loaded, status, capsys, monkeypatch):
    # the fresh run writes what main writes in process, then the modules
    # it loaded; COLUMNS fixes the width of argparse's help in both
    monkeypatch.setenv("COLUMNS", "80")
    with contextlib.suppress(SystemExit):
        main(argv)
    expected = capsys.readouterr()
    result = cold_run(
        "import richgit.cli\n"
        f"try: status = richgit.cli.main({argv!r})\n"
        "except SystemExit as exc: status = exc.code\n"
        f"print(status, {LOADED})"
    )
    modules = " ".join([str(status), "cli", *loaded])
    assert result == (f"{expected.out}{modules}\n", expected.err, 0)


def test_library_names_load_only_their_modules():
    for code, loaded in [
        ("import richgit; richgit.GrassCtx", ["core"]),
        ("import richgit; richgit.render_skew", ["core", "diagrams"]),
        ("import richgit; richgit.richardson_singular_components", ["core", "diagrams", "singular"]),
        ("import richgit; richgit.analyze", CRITERIA),
        ("from richgit import census", LIBRARY),
        # introspection probes dunder names; those load nothing
        ("import richgit; assert not hasattr(richgit, '__wrapped__')", []),
    ]:
        assert cold_run(f"{code}; print({LOADED})") == (" ".join(loaded) + "\n", "", 0), code
