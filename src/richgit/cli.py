"""Command-line surface: minimal, analyze, singular, render, census, verify.

Tuples are 1-based comma-separated integers (e.g. --v 1,3,5,7).  Results
go to stdout (or --out), diagnostics to stderr.  Exit codes: 0 success,
1 verify found mismatches, 2 invalid input.  JSON mode emits exactly one
top-level object with sorted keys, so parse-and-reserialize is idempotent.

Importing this module and building its parser load no library module, so
--help and malformed arguments cost no library import; a --ctx value loads
core to check it.  Each command imports what it runs when it runs: render
loads diagrams (with core), singular loads singular (with core and
diagrams), minimal and analyze load criteria (with those three), and only
census and verify load oracle.  These module sets are pinned by
tests/test_cli.py::test_each_command_loads_only_its_modules.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

# typing.TYPE_CHECKING without importing typing, which no command needs;
# type checkers take this name as true
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .core import GrassCtx


def to_json(data) -> str:
    """data as ``json.dumps(data, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    Accepts dicts with str keys, lists, str, int, bool and None; anything
    else, a float, a tuple or a non-str key among them, raises TypeError.
    True, False and None are told apart by identity, so a bool is never
    written as an int.  A list is written by runs of one item type: a run
    of exact ints is one join of int.__repr__, so a bool or an int
    subclass never takes it.  A CensusReport is one more leaf, written as
    its to_dict()["mismatches"] would be, without building a record or a
    dict per pair (CensusReport._tree leaves the report there): the tails
    ("w" and the closing brace) of its smooth_ws are encoded once, and
    each of its mismatch_rows is its head (the two flags and "v") joined
    over those tails.
    tests/test_cli.py::TestToJson pins the bytes against the stdlib call.
    """
    # the C encoder json.encoder wraps, without the json package's imports
    from _json import encode_basestring_ascii
    from itertools import groupby

    # a CensusReport exists only once oracle is loaded, and no command
    # that does not load it should do so here; isinstance(x, ()) is False
    census_report = getattr(sys.modules.get(f"{__package__}.oracle"), "CensusReport", ())

    def product(rep, pad: str) -> str:
        inner, field = pad + "  ", pad + "    "
        sep = "," + inner
        tails = [enc(list(w.entries), field) + inner + "}" for w in rep.smooth_ws]
        heads = [
            f'{{{field}"smooth_by_components": {enc(c, field)},'
            f'{field}"smooth_by_pattern": {enc(p, field)},'
            f'{field}"v": {enc(list(v.entries), field)},{field}"w": '
            for v, c, p in rep.mismatch_rows
        ]
        rows = [head + (sep + head).join(tails) for head in heads] if tails else []
        return "[" + inner + sep.join(rows) + pad + "]" if rows else "[]"

    def enc(x, pad: str) -> str:
        if x is None or x is True or x is False:
            return "null" if x is None else "true" if x else "false"
        if isinstance(x, str):
            return encode_basestring_ascii(x)
        if isinstance(x, int):
            return int.__repr__(x)
        if isinstance(x, census_report):
            return product(x, pad)
        inner = pad + "  "
        if isinstance(x, list):
            items = []
            for t, group in groupby(x, type):
                items += map(int.__repr__, group) if t is int else [enc(y, inner) for y in group]
            return "[" + inner + ("," + inner).join(items) + pad + "]" if x else "[]"
        if isinstance(x, dict):
            # encode_basestring_ascii raises TypeError on a non-str key
            fields = [
                encode_basestring_ascii(k) + ": " + enc(v, inner) for k, v in sorted(x.items())
            ]
            return "{" + inner + ("," + inner).join(fields) + pad + "}" if x else "{}"
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")

    return enc(data, "\n") + "\n"


def _fmt_arg(text: str) -> str:
    """repr(text) up to 20 characters; past that its first and last six and length."""
    if len(text) <= 20:
        return repr(text)
    return f"{text[:6]!r}...{text[-6:]!r} ({len(text)} characters)"


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_fmt_arg(text)}") from None


def _parse_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {_fmt_arg(text)}"
        ) from None


def _parse_ctx(text: str) -> GrassCtx:
    from .core import GrassCtx, GrassError

    values = _parse_tuple(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected K,N, got {_fmt_arg(text)}")
    try:
        return GrassCtx(*values)
    except GrassError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="richgit",
        description=(
            "Combinatorial smoothness tests for torus quotients of "
            "Richardson varieties in the Grassmannian G(k,n)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: Sequence[str]) -> None:
        p.add_argument("-k", type=_parse_int, required=True, help="subspace dimension")
        p.add_argument("-n", type=_parse_int, required=True, help="ambient dimension")
        p.add_argument(
            "--format", choices=list(formats), default="text", help="output format"
        )
        p.add_argument("--out", help="write output to this file instead of stdout")

    def add_pair(p: argparse.ArgumentParser) -> None:
        p.add_argument("--v", type=_parse_tuple, required=True, help="lower index, e.g. 1,3,5,7")
        p.add_argument("--w", type=_parse_tuple, required=True, help="upper index, e.g. 3,5,7,9")

    p = sub.add_parser("minimal", help="minimal semistable-admitting pair")
    add_common(p, ("text", "json"))

    p = sub.add_parser("analyze", help="full smoothness analysis of one pair")
    add_common(p, ("text", "json"))
    add_pair(p)

    p = sub.add_parser("singular", help="singular-locus components of one pair")
    add_common(p, ("text", "json"))
    add_pair(p)

    p = sub.add_parser("render", help="ASCII skew diagram of one pair")
    add_common(p, ("text", "json"))
    add_pair(p)

    p = sub.add_parser("census", help="sweep all semistable-admitting pairs")
    add_common(p, ("text", "json", "csv"))

    p = sub.add_parser("verify", help="cross-validation report over contexts")
    p.add_argument(
        "--ctx",
        type=_parse_ctx,
        action="append",
        metavar="K,N",
        help="context to verify (repeatable); default: all coprime pairs with n <= 12",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", help="write output to this file instead of stdout")

    return parser


def _census_csv(ctx: GrassCtx) -> str:
    """census's pairs as rows, written per v from per-side text.

    Raises what census raises before any work (oracle._check_census).
    By census's proof (v, w) is smooth iff B(v) and A(w), that is iff
    analyze(v, w_min) and analyze(v_min, w) are SMOOTH, and its dimension
    is |w| - |v| (entry sums).  So a row depends on v only through its
    text, |v| and B(v): each v's rows are one join, behind "k,n,v,", of
    the w tails "w,dimension,true,smooth" built once per (|v|, B(v)).
    The bytes are those of ``csv.writer(buf, lineterminator="\\n")`` with its
    default QUOTE_MINIMAL: each side's index field is formatted once and
    quoted iff it holds a comma, so a one-entry index of G(1,n) is bare.
    tests/test_oracle.py::test_census_equals_per_pair_analyze and
    tests/test_cli.py::TestCensus::test_csv_quoting pin them.
    """
    from .criteria import SMOOTH
    from .oracle import _check_census, _edge_reports

    _check_census(ctx)
    lower, upper = _edge_reports(ctx)

    def side(e, r):
        text = ",".join(map(str, e))
        return (f'"{text}"' if "," in text else text), sum(e), r.verdict == SMOOTH

    ws = [side(r.pair.w.entries, r) for r in upper]
    blocks: dict[tuple[int, bool], list[str]] = {}
    rows = ["k,n,v,w,dimension,has_semistable,smooth\n"]
    for r in lower:
        v, v_sum, v_ok = side(r.pair.v.entries, r)
        tails = blocks.get((v_sum, v_ok))
        if tails is None:
            tails = blocks[v_sum, v_ok] = [
                f"{w},{w_sum - v_sum},true,{'true' if v_ok and w_ok else 'false'}\n"
                for w, w_sum, w_ok in ws
            ]
        # upper holds w_min, so tails is never empty
        pre = f"{ctx.k},{ctx.n},{v},"
        rows.append(pre + pre.join(tails))
    return "".join(rows)


def _analysis_text(rep) -> str:
    components = rep.components
    lines = [
        f"pair: v={rep.pair.v} w={rep.pair.w} in {rep.pair.ctx}",
        f"nonempty: {str(rep.nonempty).lower()}",
        f"has_semistable: {str(rep.has_semistable).lower()}",
        f"dimension: {rep.dimension}",
        "components:",
    ]
    if not components:
        lines.append("  (none: the variety is smooth)")
    for comp in components:
        lines.append(
            f"  {comp.source} v={comp.pair.v} w={comp.pair.w} "
            f"has_semistable={str(comp.has_semistable).lower()}"
        )
    tri = lambda x: "n/a" if x is None else str(x).lower()
    lines.append(f"smooth_by_components: {tri(rep.smooth_by_components)}")
    lines.append(f"smooth_by_pattern: {tri(rep.smooth_by_pattern)}")
    lines.append(f"verdict: {rep.verdict}")
    return "\n".join(lines) + "\n"


def _census_text(rep) -> str:
    """census's text: one line per mismatch, each smooth w formatted once."""
    ws = [str(w) for w in rep.smooth_ws]
    lines = [
        f"census of {rep.ctx}:",
        f"  total_pairs: {rep.total_pairs}",
        f"  smooth_count: {rep.smooth_count}",
        f"  singular_count: {rep.singular_count}",
        f"  pattern mismatches: {len(rep.mismatch_rows) * len(ws)}",
        f"  oracle mismatches: {len(rep.oracle_mismatches)}",
    ]
    for v, c, p in rep.mismatch_rows:
        head, flags = f"    v={v} w=", f" components={str(c).lower()} pattern={str(p).lower()}"
        lines += [head + w + flags for w in ws]
    if rep.consistency_failures:
        lines.append(f"  consistency failures: {len(rep.consistency_failures)}")
    for f in rep.consistency_failures:
        lines.append(
            f"    {f.clause} at {f.index}: census={str(f.holds).lower()} "
            f"oracle={str(not f.holds).lower()}"
        )
    return "\n".join(lines) + "\n"


def _verify_text(rep) -> str:
    from .core import fmt_tuple

    lines = []
    for c in rep.censuses:
        status, pattern = "ok", len(c.mismatch_rows) * len(c.smooth_ws)
        if pattern or c.oracle_mismatches or c.consistency_failures:
            status = f"{pattern} pattern / {len(c.oracle_mismatches)} oracle mismatch(es)"
            if c.consistency_failures:
                status += f", {len(c.consistency_failures)} consistency failure(s)"
        lines.append(
            f"{c.ctx}: pairs={c.total_pairs} smooth={c.smooth_count} "
            f"singular={c.singular_count} [{status}]"
        )
    for e in rep.examples:
        mark = "ok" if e.ok else "FAIL"
        lines.append(
            f"reference verdict v={fmt_tuple(e.v)} w={fmt_tuple(e.w)}: "
            f"expected {e.expected}, got {e.actual} [{mark}]"
        )
    lines.append(f"passed: {str(rep.passed).lower()}")
    return "\n".join(lines) + "\n"


def _execute(args: argparse.Namespace) -> tuple[int, str]:
    """(exit code, output) of one parsed command; a GrassError propagates.

    verify builds no context.  Every other command checks the context
    first, then v, then w, then the pair.  Each command gives its JSON
    object and its text as two callables, and only the one --format
    names runs; census --format csv returns its rows directly.
    """
    from .core import GrassCtx, RichardsonId, make_index

    if args.command != "verify":
        ctx = GrassCtx(args.k, args.n)
        head = {"k": args.k, "n": args.n}
    if args.command in ("singular", "render"):
        rid = RichardsonId(make_index(args.v, ctx), make_index(args.w, ctx))
        head.update(v=list(rid.v.entries), w=list(rid.w.entries))
    code = 0
    if args.command == "verify":
        from .oracle import verify

        rep = verify(args.ctx)
        code = 0 if rep.passed else 1
        data, text = rep._tree, lambda: _verify_text(rep)
    elif args.command == "census":
        if args.format == "csv":
            return 0, _census_csv(ctx)
        from .oracle import census

        rep = census(ctx)
        data, text = rep._tree, lambda: _census_text(rep)
    elif args.command == "analyze":
        from .criteria import analyze

        rep = analyze(args.v, args.w, ctx)
        data, text = rep.to_dict, lambda: _analysis_text(rep)
    elif args.command == "minimal":
        from .criteria import minimal_pair

        mp = minimal_pair(ctx)
        w_min, v_min = list(mp.w_min.entries), list(mp.v_min.entries)
        data = lambda: {**head, "w_min": w_min, "v_min": v_min, "a": list(mp.a)}
        text = lambda: f"w_min = {mp.w_min}  v_min = {mp.v_min}\n"
    elif args.command == "singular":
        from .singular import richardson_singular_components

        comps = richardson_singular_components(rid)
        data = lambda: {
            **head,
            "components": [
                {"v": list(c.pair.v.entries), "w": list(c.pair.w.entries), "source": c.source}
                for c in comps
            ],
        }
        lines = [f"  {c.source} v={c.pair.v} w={c.pair.w}" for c in comps]
        text = lambda: "\n".join(
            [f"singular locus of {rid} in {ctx}:"] + (lines or ["  (empty: the variety is smooth)"])
        ) + "\n"
    else:
        from .diagrams import render_skew

        grid = render_skew(rid)
        data, text = lambda: {**head, "grid": grid.split("\n")}, lambda: grid + "\n"
    return code, to_json(data()) if args.format == "json" else text()


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from .core import GrassError

    try:
        code, out = _execute(args)
    except GrassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
