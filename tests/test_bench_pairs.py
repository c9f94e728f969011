"""The summary of tools/bench_pairs.py on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


BOUNDS = {"setup_s": 0.25, "wall_s": 0.25, "cpu_s": 0.25, "peak_rss_mb": 0.1}


def _runs(walls, rss):
    return [{"setup_s": 0.1, "wall_s": w, "cpu_s": w, "peak_rss_mb": r}
            for w, r in zip(walls, rss)]


def test_summary_of_fixed_pairs():
    before = _runs([0.30, 0.28, 0.35, 0.31, 0.29], [23.0, 23.1, 23.0, 23.2, 23.0])
    after = _runs([0.25, 0.29, 0.24, 0.26, 0.23], [23.0, 23.2, 22.9, 23.3, 23.1])
    got = bench_pairs.summarize(before, after, BOUNDS)
    assert set(got) == {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}
    # before sorted: 0.28 0.29 0.30 0.31 0.35; after sorted: 0.23 0.24 0.25 0.26 0.29
    assert got["wall_s"] == {
        "before": {"median": 0.30, "q1": 0.29, "q3": 0.31},
        "after": {"median": 0.25, "q1": 0.24, "q3": 0.26},
        "after_lower_in_pairs": 4,  # pair 1 reads 0.28 -> 0.29
        "verdict": "no change",  # lower in 4 of 5 pairs only
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
        bench_pairs.summarize(one, one, BOUNDS)
    with pytest.raises(ValueError):
        bench_pairs.summarize(_runs([0.3, 0.2], [23, 23]), one, BOUNDS)


# ten pairs; the before runs have median 1.045 and IQR 0.045
BEFORE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_verdict_worse_when_the_median_rises_past_the_bound():
    after = [x + 0.3 for x in BEFORE]
    assert bench_pairs.verdict(BEFORE, after, 0.25) == "worse"
    # within the bound it is not worse
    assert bench_pairs.verdict(BEFORE, [x + 0.2 for x in BEFORE], 0.25) == "no change"


def test_verdict_unresolved_when_the_before_spread_exceeds_the_bound():
    wide = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]  # IQR 0.9
    after = [x - 0.3 for x in wide]  # lower in 10 of 10, but not below every before run
    assert bench_pairs.verdict(wide, after, 0.25) == "unresolved"
    # every after run below every before run resolves it
    assert bench_pairs.verdict(wide, [x - 1.9 for x in wide], 0.25) == "lower"


def test_verdict_lower_needs_nine_of_ten_pairs_and_a_drop_past_the_iqr():
    after = [x - 0.1 for x in BEFORE]
    assert bench_pairs.verdict(BEFORE, after, 0.25) == "lower"
    # nine of ten pairs suffice, a tie counts for neither side
    assert bench_pairs.verdict(BEFORE, after[:9] + [BEFORE[9]], 0.25) == "lower"
    # eight of ten do not
    assert bench_pairs.verdict(BEFORE, after[:8] + BEFORE[8:], 0.25) == "no change"
    # a drop inside the before IQR is not lower
    assert bench_pairs.verdict(BEFORE, [x - 0.04 for x in BEFORE], 0.25) == "no change"


def test_verdict_no_change_on_equal_runs():
    assert bench_pairs.verdict(BEFORE, list(BEFORE), 0.25) == "no change"
