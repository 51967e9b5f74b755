"""Helpers shared by the test modules: index shorthand and context lists."""

from itertools import groupby
from math import gcd

from richgit import GrassCtx, make_index

G49 = GrassCtx(4, 9)


def idx(values, ctx=G49):
    return make_index(values, ctx)


def coprime_ctxs(max_n, min_k=1):
    return [
        GrassCtx(k, n)
        for n in range(2, max_n + 1)
        for k in range(min_k, n)
        if gcd(k, n) == 1
    ]


def all_small_ctxs(max_n):
    return [GrassCtx(k, n) for n in range(2, max_n + 1) for k in range(1, n)]


def runs(p):
    return [(value, len(list(g))) for value, g in groupby(x for x in p.parts if x)]
