"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _runs(walls, rss):
    return [{"setup_s": 0.1, "wall_s": w, "cpu_s": w, "peak_rss_mb": r}
            for w, r in zip(walls, rss)]


def test_summary_of_fixed_pairs():
    before = _runs([0.30, 0.28, 0.35, 0.31, 0.29], [23.0, 23.1, 23.0, 23.2, 23.0])
    after = _runs([0.25, 0.29, 0.24, 0.26, 0.23], [23.0, 23.2, 22.9, 23.3, 23.1])
    got = bench_pairs.summarize(before, after)
    assert set(got) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
    # before sorted: 0.28 0.29 0.30 0.31 0.35; after sorted: 0.23 0.24 0.25 0.26 0.29
    assert got["wall_s"] == {
        "before": {"median": 0.30, "q1": 0.29, "q3": 0.31},
        "after": {"median": 0.25, "q1": 0.24, "q3": 0.26},
        "after_lower_in_pairs": 4,  # pair 1 reads 0.28 -> 0.29
    }
    assert got["cpu_s"] == got["wall_s"]
    # equal values are not lower
    assert got["setup_s"]["after_lower_in_pairs"] == 0
    assert got["setup_s"]["before"] == {"median": 0.1, "q1": 0.1, "q3": 0.1}
    assert got["peak_rss_mb"]["after_lower_in_pairs"] == 1
    assert got["peak_rss_mb"]["before"] == {"median": 23.0, "q1": 23.0, "q3": 23.1}


def test_quartiles_interpolate_between_values():
    assert bench_pairs.quartiles([1, 2, 3, 4]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}


def test_summary_needs_two_aligned_pairs():
    one = _runs([0.3], [23.0])
    with pytest.raises(ValueError):
        bench_pairs.summarize(one, one)
    with pytest.raises(ValueError):
        bench_pairs.summarize(_runs([0.3, 0.2], [23, 23]), one)
