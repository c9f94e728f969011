"""Kernel backend selection, and the one determinant over term dicts.

The compiled extension is preferred when importable; setting the environment
variable ``SCHURHR_PURE_PYTHON`` (to anything nonempty) forces the reference
implementation.  ``BACKEND`` names the active one.
"""

import os

if os.environ.get("SCHURHR_PURE_PYTHON"):
    from ._ref import BACKEND, add_scaled, mul_terms, mul_terms_capped
else:
    try:
        from ._fast import BACKEND, add_scaled, mul_terms, mul_terms_capped
    except ImportError:
        from ._ref import BACKEND, add_scaled, mul_terms, mul_terms_capped

__all__ = ["BACKEND", "mul_terms", "mul_terms_capped", "add_scaled", "det_terms"]


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
