"""Exact real-root counting for univariate rational polynomials.

Polynomials are coefficient lists indexed by degree.  One remainder chain
p, p', -rem(p, p'), ... ends in g = gcd(p, p') up to a constant.  Every
element is a multiple of g, which has a fixed sign near -inf and near +inf,
so V(-inf) - V(+inf), the sign variations of the raw chain, counts the
distinct real roots, also when roots repeat.  p has only real roots exactly
when that count is deg p - deg g, its number of distinct complex roots.
"""

from fractions import Fraction

from .rationals import parse_q


def _strip(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _rem(a, b):
    """Remainder of a by a nonzero b, over Fractions."""
    a = [Fraction(x) for x in a]
    while len(a) >= len(b):
        c = a.pop() / b[-1]
        if c:
            off = len(a) - len(b) + 1
            for i in range(len(b) - 1):
                a[off + i] -= c * b[i]
    return _strip(a)


def _sturm_chain(p):
    """p, p', -rem(p, p'), ... for p of degree >= 1, down to gcd(p, p')."""
    chain = [p, [p[i] * i for i in range(1, len(p))]]
    while r := _rem(chain[-2], chain[-1]):
        chain.append([-x for x in r])
    return chain


def _root_counts(p):
    """(distinct real roots, distinct complex roots) of p; (0, 0) for a constant."""
    p = _strip(parse_q(x) for x in p)
    if len(p) <= 1:
        return 0, 0
    chain = _sturm_chain(p)
    hi = [1 if c[-1] > 0 else -1 for c in chain]
    lo = [s if len(c) % 2 else -s for s, c in zip(hi, chain)]  # odd degree flips

    def variations(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(lo) - variations(hi), len(p) - len(chain[-1])


def has_only_real_roots(p):
    """True iff every complex root of p is real.

    Degenerate inputs (zero or constant polynomials) count as real-rooted.
    """
    real, distinct = _root_counts(p)
    return real == distinct
