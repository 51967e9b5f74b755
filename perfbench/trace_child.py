"""A traced workload process: wraps richgit's functions, runs, dumps spans.

Usage:
    python3 trace_child.py OUTBASE cli ARG...        # richgit.cli.main(ARGs)
    python3 trace_child.py OUTBASE analyze INPUTS.json

Imports every richgit module, then replaces each module-level binding of
a public function of core, diagrams, singular, criteria, oracle and cli
(plus cli._census_csv) with a wrapper.  Every binding of one function
gets the same wrapper, so a call is traced whichever module makes it;
``analyze``, for one, is bound in criteria, oracle, cli and the package.
No source file changes: the wrappers live only in this process.

Most wrappers record a span (name, start, end, parent) in memory.  Small
hot functions only count calls, so that tracing does not swamp them:
GrassIndex validation and Bruhat comparison among them.  When the run
ends, OUTBASE.bin gets the spans as four packed arrays (name ids,
parent ids, start and end times) and OUTBASE.json the span names, the
counters and the public cache_info() of the lru caches.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

MODULES = ("core", "diagrams", "singular", "criteria", "oracle", "cli")
COUNT_ONLY = {
    "core.make_index",
    "core.bruhat_leq",
    "core.length",
    "core.fmt_tuple",
    "core.richardson_nonempty",
    "core.richardson_contains",
    "core.richardson_dim",
    "criteria.has_semistable",
    "oracle.hook_oracle_components",
    "oracle.default_contexts",
}
PRIVATE_SPANS = {"cli._census_csv"}
ROOT = -1


class Tracer:
    """Span and counter store for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [ROOT]
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def parent_name(self, span: int) -> str | None:
        parent = self.span_parent[span]
        return None if parent == ROOT else self.names[self.span_name[parent]]

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so each call records a span; on_result(result, span) runs after."""
        nid = self.name_id(name)
        clock = time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, idx)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so each call only bumps a counter."""
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def dump(self, outbase: str, extra: dict) -> None:
        with open(outbase + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        meta = {"names": self.names, "spans": len(self.span_name), "counts": self.counts}
        meta.update(extra)
        with open(outbase + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def _functions(module, short: str):
    """Public functions defined in module, as (qualified name, object)."""
    for attr, obj in vars(module).items():
        if isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        name = f"{short}.{attr}"
        if not attr.startswith("_") or name in PRIVATE_SPANS:
            yield name, obj


def _hooks(tracer: Tracer) -> dict:
    """Counters that need a call's result, keyed by the span they hook."""
    built = set()

    def richardson(result, span):
        tracer.bump("singular.kept", len(result))
        if tracer.parent_name(span) == "criteria.analyze":
            built.add(tracer.span_parent[span])

    def candidates(result, span):
        if tracer.parent_name(span) == "singular.richardson_singular_components":
            tracer.bump("singular.candidates", len(result))

    def analyze(result, span):
        with_components = span in built
        built.discard(span)
        if result.verdict == "EMPTY_QUOTIENT" and with_components:
            tracer.bump("criteria.empty_with_components")

    def build_parser(parser, span):
        parser.parse_args = tracer.span("cli.parse_args", parser.parse_args)

    return {
        "singular.richardson_singular_components": richardson,
        "singular.schubert_singular_components": candidates,
        "singular.opposite_singular_components": candidates,
        "criteria.analyze": analyze,
        "cli.build_parser": build_parser,
    }


def install(tracer: Tracer) -> dict:
    """Wrap every binding; return the lru-cached originals by name."""
    import richgit

    modules = [richgit] + [getattr(richgit, m) for m in MODULES]
    hooks = _hooks(tracer)
    cached = {}
    for short in MODULES:
        module = getattr(richgit, short)
        for name, fn in list(_functions(module, short)):
            if hasattr(fn, "cache_info"):
                cached[name] = fn
            if name in COUNT_ONLY:
                wrapper = tracer.counter(name, fn)
            else:
                wrapper = tracer.span(name, fn, hooks.get(name))
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        setattr(mod, attr, wrapper)

    grass_index = richgit.core.GrassIndex
    grass_index.__post_init__ = tracer.counter(
        "core.index_validations", grass_index.__post_init__
    )
    grass_index.__le__ = tracer.counter("core.bruhat_cmp", grass_index.__le__)
    return cached


def main() -> int:
    outbase, mode, *rest = sys.argv[1:]
    start = time.perf_counter()
    import richgit
    import richgit.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    cached = install(tracer)
    try:
        if mode == "cli":
            code = richgit.cli.main(rest)
        else:
            from analyze_child import load_jobs, run_pairs

            result = run_pairs(richgit.analyze, load_jobs(rest[0], richgit.GrassCtx))
            sys.stdout.write(json.dumps(result) + "\n")
            code = 0
        sys.stdout.flush()
    finally:
        tracer.dump(
            outbase,
            {
                "import_s": import_s,
                "cache_info": {
                    name: fn.cache_info()._asdict() for name, fn in cached.items()
                },
            },
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
