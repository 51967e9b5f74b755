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
