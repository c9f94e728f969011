"""Integer partitions, box duality and semistandard tableau counting.

A partition is a weakly decreasing tuple of nonnegative integers.  Trailing
zeros are kept as given (some callers want an explicit length) but equality
and hashing ignore them.
"""

class Partition:
    """Weakly decreasing sequence of nonnegative integers."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        if isinstance(parts, Partition):
            parts = parts.parts
        # from a list: tuple(generator) takes ten slots and shrinks, piling up free tuples
        parts = tuple([int(p) for p in parts])
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"parts must be nonnegative: {parts}")
        self.parts = parts

    @property
    def weight(self):
        return sum(self.parts)

    @property
    def normalized(self):
        """Parts with trailing zeros stripped."""
        parts = self.parts
        n = len(parts)
        while n and parts[n - 1] == 0:
            n -= 1
        return parts[:n]

    @property
    def length(self):
        """Number of nonzero parts."""
        return len(self.normalized)

    @property
    def first(self):
        """Largest part (0 for the empty partition)."""
        return self.parts[0] if self.parts else 0

    def padded(self, n):
        """Parts zero-padded to length n (n must be >= the nonzero length)."""
        parts = self.normalized
        if n < len(parts):
            raise ValueError(f"cannot pad {parts} to length {n}")
        return parts + (0,) * (n - len(parts))

    def conjugate(self):
        """Transpose of the Young diagram."""
        parts = self.normalized
        if not parts:
            return Partition()
        return Partition(tuple(sum(1 for p in parts if p > j) for j in range(parts[0])))

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.normalized == other.normalized

    def __hash__(self):
        return hash(self.normalized)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def to_json(self):
        return list(self.parts)


def dual_in_box(lam, e, N):
    """Complement-and-reverse of lam inside an e x N box.

    With lam zero-padded to length N, the dual has parts e - lam[N-1-i]
    (largest complement first); the weight satisfies |dual| = N*e - |lam|
    and applying the operation twice gives lam back.
    """
    lam = Partition(lam)
    if e < 1 or N < 1:
        raise ValueError("box sides must be positive")
    if lam.first > e:
        raise ValueError(f"largest part {lam.first} exceeds box width {e}")
    if lam.length > N:
        raise ValueError(f"partition has more than {N} parts")
    padded = lam.padded(N)
    return Partition(tuple(e - padded[N - 1 - i] for i in range(N)))


def partitions_of(n, max_part=None, max_len=None):
    """Yield all partitions of n (optionally bounding part size and length)."""
    if max_part is None:
        max_part = n
    if max_len is None:
        max_len = n

    def rec(remaining, largest, room):
        if remaining == 0:
            yield ()
            return
        if room == 0:
            return
        for p in range(min(largest, remaining), 0, -1):
            for rest in rec(remaining - p, p, room - 1):
                yield (p,) + rest

    for parts in rec(n, max_part, max_len):
        yield Partition(parts)


def partitions_up_to(n, max_part=None, max_len=None):
    """Yield all partitions of weight 0..n (the empty partition first)."""
    for w in range(n + 1):
        yield from partitions_of(w, max_part=max_part, max_len=max_len)


def partitions_in_box(e, N):
    """Yield all partitions with at most N parts, each at most e."""
    for w in range(e * N + 1):
        yield from partitions_of(w, max_part=e, max_len=N)


def ssyt_count(shape, weight):
    """Number of semistandard Young tableaux of the given shape and content.

    Enumeration of the fillings with that content; an exact oracle at desk scale.
    """
    shape = Partition(shape)
    weight = [int(w) for w in weight]
    if any(w < 0 for w in weight):
        raise ValueError(f"weight entries must be nonnegative: {weight}")
    if sum(weight) != shape.weight:
        raise ValueError(
            f"weight sum {sum(weight)} does not match shape weight {shape.weight}"
        )
    return _fillings(shape, len(weight), weight).get(tuple(weight), 0)


def ssyt_weight_counts(shape, maxval):
    """Map weight vector -> number of SSYT of the shape with entries 1..maxval.

    Backtracking fill of the Young diagram, column-strict down and weakly
    increasing along rows, binning every filling by its weight.
    """
    return _fillings(shape, maxval, None)


def _fillings(shape, maxval, target):
    # with a target content, a letter is pruned once its count reaches it
    shape = Partition(shape)
    if shape.weight == 0:
        return {(0,) * maxval: 1}
    if maxval < 1 or shape.length > maxval:
        # a column longer than the alphabet admits no column-strict filling
        return {}
    rows = shape.normalized
    cells = [(r, c) for r, row_len in enumerate(rows) for c in range(row_len)]
    ncells = len(cells)
    grid = [[0] * row_len for row_len in rows]
    weight = [0] * maxval
    tally = {}

    def place(k):
        if k == ncells:
            key = tuple(weight)
            tally[key] = tally.get(key, 0) + 1
            return
        r, c = cells[k]
        lo = grid[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, maxval + 1):
            if target is not None and weight[v - 1] == target[v - 1]:
                continue
            grid[r][c] = v
            weight[v - 1] += 1
            place(k + 1)
            weight[v - 1] -= 1
        grid[r][c] = 0

    place(0)
    return tally
