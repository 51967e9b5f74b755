"""Exact laws of the admissible-pair counts, checked through census."""

from richgit import GrassCtx, census


def test_every_admissible_pair_of_g2n_is_smooth():
    """G(2,n) for odd n: all ((n-1)/2)**2 admissible pairs are SMOOTH.

    This matches a classical fact from outside the library: the quotient
    G(2,n)//T is isomorphic to (P^1)^n//SL_2, which is smooth for odd n
    (Gelfand-MacPherson, Kapranov).
    """
    for n in range(3, 42, 2):
        rep = census(GrassCtx(2, n))
        assert rep.total_pairs == rep.smooth_count == ((n - 1) // 2) ** 2, n
        assert rep.oracle_mismatches == (), n


def fibonacci(m):
    """F_m with F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def test_fibonacci_law_next_to_the_diagonal():
    """smooth_count is F_{2k-1}**2 on G(k, 2k+1) and F_{2k-3}**2 on G(k, 2k-1).

    Counted by census's classification of every admissible pair, for
    k <= 7.  smooth_count = |A|**2, where |A| counts the w >= w_min that
    satisfy the upper clause (the lower one is its image under iota), and
    for n = 2k + 1 that is the odd-indexed Fibonacci number F_{2k-1}:
    1, 2, 5, 13, 34, 89, 233.  G(k, 2k-1) is dual to G(k-1, 2k-1), which
    is the n = 2k' + 1 case with k' = k - 1, hence F_{2k-3}.  G(4, 9) thus
    has 169 = 13**2 smooth pairs.
    """
    assert [fibonacci(m) for m in range(1, 14, 2)] == [1, 2, 5, 13, 34, 89, 233]
    for k in range(1, 8):
        assert census(GrassCtx(k, 2 * k + 1)).smooth_count == fibonacci(2 * k - 1) ** 2, k
    for k in range(2, 8):
        assert census(GrassCtx(k, 2 * k - 1)).smooth_count == fibonacci(2 * k - 3) ** 2, k
