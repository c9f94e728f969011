"""Partition arithmetic and the tableau-counting oracle."""

import itertools

import pytest
from hypothesis import given, strategies as st

from schurhr.partitions import (Partition, dual_in_box, partitions_in_box,
                                partitions_up_to, ssyt_count,
                                ssyt_weight_counts)

partition_parts = st.lists(st.integers(0, 5), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def _column_heights(parts):
    """Independent conjugation oracle: count boxes per column explicitly."""
    if not parts or parts[0] == 0:
        return ()
    grid = [[1] * p for p in parts if p]
    cols = []
    for j in range(parts[0]):
        cols.append(sum(1 for row in grid if j < len(row)))
    return tuple(cols)


def test_validation_rejects_increasing():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_trailing_zeros_are_inert():
    assert Partition((2, 1)) == Partition((2, 1, 0, 0))
    assert hash(Partition((2, 1))) == hash(Partition((2, 1, 0)))
    assert Partition((2, 1, 0)).length == 2
    assert Partition((2, 1, 0)).weight == 3


def test_conjugate_examples():
    assert Partition((2, 1)).conjugate() == Partition((2, 1))
    assert Partition((3,)).conjugate() == Partition((1, 1, 1))
    assert Partition((4, 2, 1)).conjugate() == Partition((3, 2, 1, 1))


def test_conjugate_against_column_oracle():
    for lam in partitions_up_to(6):
        assert lam.conjugate().normalized == _column_heights(lam.parts)


@given(partition_parts)
def test_conjugate_is_involution(parts):
    lam = Partition(parts)
    assert lam.conjugate().conjugate() == lam


def test_dual_in_box_examples():
    assert dual_in_box((1,), 1, 1) == Partition((0,))
    assert dual_in_box((2, 1), 2, 2) == Partition((1, 0))
    assert dual_in_box((0, 0), 3, 2) == Partition((3, 3))


def test_dual_in_box_involution_and_weight():
    for e in range(1, 6):
        for N in range(1, 6):
            for lam in partitions_in_box(e, N):
                bar = dual_in_box(lam, e, N)
                assert dual_in_box(bar, e, N) == lam
                assert lam.weight + bar.weight == N * e


def test_dual_in_box_rejects_bad_input():
    with pytest.raises(ValueError):
        dual_in_box((3,), 2, 2)
    with pytest.raises(ValueError):
        dual_in_box((1, 1, 1), 2, 2)


def test_ssyt_count_examples():
    assert ssyt_count((1, 1), (1, 1)) == 1
    assert ssyt_count((2,), (1, 1)) == 1
    assert ssyt_count((2, 1), (1, 1, 1)) == 2


def test_ssyt_count_rejects_weight_mismatch():
    with pytest.raises(ValueError):
        ssyt_count((2, 1), (1, 1))


def test_ssyt_count_symmetric_in_weight():
    for lam in partitions_up_to(5):
        if lam.weight == 0:
            continue
        content = lam.padded(max(3, lam.length))
        ref = ssyt_count(lam, content)
        for perm in set(itertools.permutations(content)):
            assert ssyt_count(lam, perm) == ref


def test_ssyt_count_matches_the_full_tally():
    # ssyt_count stops a letter at its content; the unpruned search bins all
    for lam in partitions_up_to(5):
        for maxval in (3, 4):
            for content, n in ssyt_weight_counts(lam, maxval).items():
                assert ssyt_count(lam, content) == n
    assert ssyt_count((4, 3, 2), (2, 2, 1, 1, 1, 1, 1)) == 50


def test_ssyt_weight_counts_totals():
    # the number of tableaux with entries <= m equals the sum over contents
    counts = ssyt_weight_counts((2, 1), 3)
    assert sum(counts.values()) == 8
    assert counts[(1, 1, 1)] == 2
    assert counts[(2, 1, 0)] == 1


def test_json_round_trip():
    lam = Partition((3, 1, 0))
    assert Partition(lam.to_json()) == lam
    assert lam.to_json() == [3, 1, 0]
