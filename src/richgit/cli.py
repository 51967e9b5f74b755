"""Command-line surface: minimal, analyze, singular, render, census, verify.

Tuples are 1-based comma-separated integers (e.g. --v 1,3,5,7).  Results
go to stdout (or --out), diagnostics to stderr.  Exit codes: 0 success,
1 verify found mismatches, 2 invalid input.  JSON mode emits exactly one
top-level object with sorted keys, so parse-and-reserialize is idempotent.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Sequence

from .core import (
    GrassCtx,
    GrassError,
    RichardsonId,
    fmt_tuple,
    make_index,
)
from .criteria import analyze, minimal_pair
from .diagrams import render_skew
from .oracle import admissible_reports, census, verify
from .singular import richardson_singular_components


def to_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _parse_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _parse_ctx(text: str) -> GrassCtx:
    values = _parse_tuple(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected K,N, got {text!r}")
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
        p.add_argument("-k", type=int, required=True, help="subspace dimension")
        p.add_argument("-n", type=int, required=True, help="ambient dimension")
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "n", "v", "w", "dimension", "has_semistable", "smooth"])
    for rep in admissible_reports(ctx):
        writer.writerow(
            [
                ctx.k,
                ctx.n,
                ",".join(str(e) for e in rep.pair.v.entries),
                ",".join(str(e) for e in rep.pair.w.entries),
                rep.dimension,
                "true" if rep.has_semistable else "false",
                "true" if rep.smooth_by_components else "false",
            ]
        )
    return buf.getvalue()


def _analysis_text(rep) -> str:
    lines = [
        f"pair: v={rep.pair.v} w={rep.pair.w} in {rep.pair.ctx}",
        f"nonempty: {str(rep.nonempty).lower()}",
        f"has_semistable: {str(rep.has_semistable).lower()}",
        f"dimension: {rep.dimension}",
        "components:",
    ]
    if not rep.components:
        lines.append("  (none: the variety is smooth)")
    for comp in rep.components:
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
    lines = [
        f"census of {rep.ctx}:",
        f"  total_pairs: {rep.total_pairs}",
        f"  smooth_count: {rep.smooth_count}",
        f"  singular_count: {rep.singular_count}",
        f"  pattern mismatches: {len(rep.mismatches)}",
        f"  oracle mismatches: {len(rep.oracle_mismatches)}",
    ]
    for m in rep.mismatches:
        lines.append(
            f"    v={m.v} w={m.w} components={str(m.smooth_by_components).lower()} "
            f"pattern={str(m.smooth_by_pattern).lower()}"
        )
    return "\n".join(lines) + "\n"


def _verify_text(rep) -> str:
    lines = []
    for c in rep.censuses:
        status = "ok"
        if c.mismatches or c.oracle_mismatches:
            status = (
                f"{len(c.mismatches)} pattern / {len(c.oracle_mismatches)} oracle "
                f"mismatch(es)"
            )
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
    if args.command == "minimal":
        mp = minimal_pair(GrassCtx(args.k, args.n))
        if args.format == "json":
            out = to_json(
                {
                    "k": args.k,
                    "n": args.n,
                    "w_min": list(mp.w_min.entries),
                    "v_min": list(mp.v_min.entries),
                    "a": list(mp.a),
                }
            )
        else:
            out = f"w_min = {mp.w_min}  v_min = {mp.v_min}\n"
        return 0, out

    if args.command == "analyze":
        rep = analyze(args.v, args.w, GrassCtx(args.k, args.n))
        out = to_json(rep.to_dict()) if args.format == "json" else _analysis_text(rep)
        return 0, out

    if args.command == "singular":
        ctx = GrassCtx(args.k, args.n)
        rid = RichardsonId(make_index(args.v, ctx), make_index(args.w, ctx))
        comps = richardson_singular_components(rid)
        if args.format == "json":
            out = to_json(
                {
                    "k": args.k,
                    "n": args.n,
                    "v": list(rid.v.entries),
                    "w": list(rid.w.entries),
                    "components": [
                        {
                            "v": list(c.pair.v.entries),
                            "w": list(c.pair.w.entries),
                            "source": c.source,
                        }
                        for c in comps
                    ],
                }
            )
        else:
            lines = [f"singular locus of X^{rid.v}_{rid.w} in {ctx}:"]
            if not comps:
                lines.append("  (empty: the variety is smooth)")
            for c in comps:
                lines.append(f"  {c.source} v={c.pair.v} w={c.pair.w}")
            out = "\n".join(lines) + "\n"
        return 0, out

    if args.command == "render":
        ctx = GrassCtx(args.k, args.n)
        rid = RichardsonId(make_index(args.v, ctx), make_index(args.w, ctx))
        grid = render_skew(rid)
        if args.format == "json":
            out = to_json(
                {
                    "k": args.k,
                    "n": args.n,
                    "v": list(rid.v.entries),
                    "w": list(rid.w.entries),
                    "grid": grid.split("\n"),
                }
            )
        else:
            out = grid + "\n"
        return 0, out

    if args.command == "census":
        ctx = GrassCtx(args.k, args.n)
        if args.format == "csv":
            return 0, _census_csv(ctx)
        rep = census(ctx)
        out = to_json(rep.to_dict()) if args.format == "json" else _census_text(rep)
        return 0, out

    if args.command == "verify":
        rep = verify(args.ctx)
        out = to_json(rep.to_dict()) if args.format == "json" else _verify_text(rep)
        return (0 if rep.passed else 1), out

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
