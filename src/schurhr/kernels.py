"""Term-arithmetic kernels, and the one determinant over term dicts.

Terms are dicts mapping exponent tuples (plain ints, fixed length) to
nonzero exact coefficients (int or Fraction).  The three multiply and
accumulate functions are the hot inner loops of the whole package.
"""

import operator

__all__ = ["mul_terms", "mul_terms_capped", "add_scaled", "det_terms"]


def mul_terms(a, b):
    """Product of two term dicts with the same exponent length."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    add = operator.add
    bitems = list(b.items())
    for ea, ca in a.items():
        for eb, cb in bitems:
            key = tuple(map(add, ea, eb))
            c = ca * cb
            prev = get(key)
            if prev is None:
                out[key] = c
            else:
                s = prev + c
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def mul_terms_capped(a, b, caps):
    """Like mul_terms, but drops any monomial whose exponent exceeds caps."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    add = operator.add
    bitems = list(b.items())
    for ea, ca in a.items():
        for eb, cb in bitems:
            key = tuple(map(add, ea, eb))
            over = False
            for x, cap in zip(key, caps):
                if x > cap:
                    over = True
                    break
            if over:
                continue
            c = ca * cb
            prev = get(key)
            if prev is None:
                out[key] = c
            else:
                s = prev + c
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def add_scaled(acc, terms, coeff=1):
    """In place acc += coeff * terms; removes entries that cancel to zero."""
    if not coeff:
        return acc
    get = acc.get
    if coeff == 1:
        for e, c in terms.items():
            prev = get(e)
            if prev is None:
                acc[e] = c
            else:
                s = prev + c
                if s:
                    acc[e] = s
                else:
                    del acc[e]
    else:
        for e, c in terms.items():
            c = coeff * c
            prev = get(e)
            if prev is None:
                acc[e] = c
            else:
                s = prev + c
                if s:
                    acc[e] = s
                else:
                    del acc[e]
    return acc


def det_terms(rows, mul):
    """Determinant of a square matrix of term dicts; ``mul`` multiplies two.

    Division-free Laplace expansion along columns, memoised on the set of
    rows still available, so it is exact in any commutative ring, including
    the truncated cohomology rings, which have zero divisors.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    for r in rows:
        if len(r) != n:
            raise ValueError("matrix is not square")
    last = n - 1
    memo = {}

    def minor(row_idx):
        # determinant of rows row_idx on the last len(row_idx) columns
        if len(row_idx) == 1:
            return rows[row_idx[0]][last]
        got = memo.get(row_idx)
        if got is not None:
            return got
        col = n - len(row_idx)
        total = {}
        for pos, r in enumerate(row_idx):
            entry = rows[r][col]
            if not entry:
                continue
            sub = minor(row_idx[:pos] + row_idx[pos + 1:])
            if sub:
                add_scaled(total, mul(entry, sub), -1 if pos % 2 else 1)
        memo[row_idx] = total
        return total

    return dict(minor(tuple(range(n))))
