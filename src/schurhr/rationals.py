"""Exact rational coefficients: canonical form, parsing and formatting.

Coefficients throughout the package are either Python ints or Fractions;
Fractions with denominator 1 are canonicalized to int so the common integer
paths stay fast.  JSON carries rationals as strings like "3", "-2/5".
"""

from fractions import Fraction
from math import lcm

Rational = (int, Fraction)


def canon(c):
    """Canonical coefficient: int when the denominator is 1."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"not an exact rational: {c!r}")


def parse_q(s):
    """Parse "n" or "n/d" (also accepts int/Fraction) into canonical form."""
    if isinstance(s, Rational):
        return canon(s)
    if isinstance(s, str):
        try:
            return canon(Fraction(s))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {s!r}") from None
    raise TypeError(f"cannot parse rational from {s!r}")


def common_denominator(values):
    """Least common multiple of the denominators of ``values`` (1 when empty).

    Multiplying every value by it gives integers.
    """
    # a list, not a generator: unpacking a generator into the call raised the
    # peak resident size of many small calls (0.5 MB over 6,000 of them)
    return lcm(*[v.denominator for v in values])


def fmt_q(c):
    """Format a coefficient as "n" or "n/d"."""
    if type(c) is int:
        return str(c)
    return str(Fraction(c))


def fmt_terms(terms, var):
    """Render ordered (exponents, coeff) pairs as "2*x1^2 - x1*x2 + 3".

    Variable j (from 1) is written var + j; the empty sum is "0".  The
    caller chooses the term order.
    """
    chunks = []
    for e, c in terms:
        mono = "*".join(
            f"{var}{j + 1}^{x}" if x > 1 else f"{var}{j + 1}"
            for j, x in enumerate(e)
            if x
        )
        neg = c < 0
        c = -c if neg else c
        if not mono:
            body = fmt_q(c)
        elif c == 1:
            body = mono
        else:
            body = f"{fmt_q(c)}*{mono}"
        if chunks:
            chunks.append(f"- {body}" if neg else f"+ {body}")
        else:
            chunks.append(f"-{body}" if neg else body)
    return " ".join(chunks) or "0"


def terms_to_json(terms):
    """JSON list of ordered (exponents, coeff) pairs, coefficients as strings."""
    return [{"exponents": list(e), "coeff": fmt_q(c)} for e, c in terms]
