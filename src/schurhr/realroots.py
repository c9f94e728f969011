"""Exact real-root counting for univariate rational polynomials.

Polynomials are coefficient lists indexed by degree.  Sign variation counts
of the Sturm chain at -inf and +inf give the number of distinct real roots;
comparing with the degree of the squarefree part decides whether every root
is real.
"""

from fractions import Fraction

from .rationals import parse_q


def _strip(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _derivative(p):
    return [p[i] * i for i in range(1, len(p))]


def _divmod(a, b):
    """Quotient and remainder of a by b (b nonzero), over Fractions."""
    a = [Fraction(x) for x in a]
    lb = Fraction(b[-1])
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] / lb
        off = len(a) - len(b)
        q[off] = c
        for i in range(len(b) - 1):
            a[off + i] -= c * b[i]
        a.pop()
    return _strip(q), _strip(a)


def _gcd(a, b):
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def squarefree_part(p):
    p = _strip(p)
    if len(p) <= 1:
        return p
    g = _gcd(p, _derivative(p))
    if len(g) <= 1:
        return p
    return _divmod(p, g)[0]


def _variations(signs):
    signs = [s for s in signs if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)


def _sturm_count(p):
    """Distinct real roots of a squarefree p: its Sturm chain over (-inf, inf)."""
    if len(p) <= 1:
        return 0
    chain = [p, _strip(_derivative(p))]
    while len(chain[-1]) > 1:
        r = _divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append([-x for x in r])

    def sign_at(c, at_minus_infinity):
        s = 1 if c[-1] > 0 else -1
        if at_minus_infinity and (len(c) - 1) % 2 == 1:
            s = -s
        return s

    lo = [sign_at(c, True) for c in chain if c]
    hi = [sign_at(c, False) for c in chain if c]
    return _variations(lo) - _variations(hi)


def count_distinct_real_roots(p):
    """Number of distinct real roots."""
    return _sturm_count(squarefree_part([parse_q(x) for x in p]))


def has_only_real_roots(p):
    """True iff every complex root of p is real.

    Degenerate inputs (zero or constant polynomials) count as real-rooted.
    """
    p = _strip([parse_q(x) for x in p])
    while p and p[0] == 0:
        p.pop(0)  # roots at zero are real
    if len(p) <= 1:
        return True
    sf = squarefree_part(p)
    return _sturm_count(sf) == len(sf) - 1
