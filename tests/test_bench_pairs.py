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


# the "metrics" object of a --trace 1 result, cut down
TRACED = {
    "kernels.mul_terms_capped.calls": {"value": 868.0, "unit": "count"},
    "kernels.mul_terms_capped.term_products": {"value": 87576.0, "unit": "count"},
    "kernels.mul_terms_capped.out_terms": {"value": 33134.0, "unit": "count"},
    "kernels.mul_terms_capped.self_s": {"value": 0.0357, "unit": "s"},
    "schur.schur_jt.miss_ratio": {"value": 0.6667, "unit": "ratio"},
    "quadforms.inertia.calls": {"value": 448.0, "unit": "count"},
    "analysis.minor_dets": {"value": 0.0, "unit": "count"},
    "setup_s": {"value": 0.21, "unit": "s"},
}


def test_counts_of_keeps_the_count_metrics_as_ints():
    got = bench_pairs.counts_of(TRACED)
    assert got == {
        "kernels.mul_terms_capped.calls": 868,
        "kernels.mul_terms_capped.term_products": 87576,
        "kernels.mul_terms_capped.out_terms": 33134,
        "quadforms.inertia.calls": 448,
    }
    assert all(type(v) is int for v in got.values())
    # a median between two passes may be a half
    assert bench_pairs.counts_of({"a.calls": {"value": 2.5}}) == {"a.calls": 2.5}


def test_per_layer_counts_pairs_the_sides_by_name():
    before = bench_pairs.counts_of(TRACED)
    after = dict(before, **{"kernels.mul_terms_capped.calls": 2664, "new.calls": 1})
    del after["quadforms.inertia.calls"]
    got = bench_pairs.per_layer_counts(before, after)
    assert list(got) == sorted(got)
    assert got["kernels.mul_terms_capped.calls"] == {"before": 868, "after": 2664}
    assert got["kernels.mul_terms_capped.out_terms"] == {"before": 33134, "after": 33134}
    assert got["quadforms.inertia.calls"] == {"before": 448, "after": None}
    assert got["new.calls"] == {"before": None, "after": 1}


def test_pairs_adds_the_traced_counts(monkeypatch):
    calls = []

    def fake_run_json(checkout, workload, seed, seconds, trace):
        calls.append((checkout, trace))
        if trace:
            return [], {"metrics": TRACED}, 0
        lines = ["passes 3: fake"]
        metrics = {name: {"value": 1.0 if checkout == "b" else 0.9}
                   for name in bench_pairs.METRICS}
        return lines, {"metrics": metrics, "failed": 0}, 0

    monkeypatch.setattr(bench_pairs, "run_json", fake_run_json)
    entry = bench_pairs.pairs("b", "a", "symbolic", 1, 2, 1, BOUNDS)
    # one traced run per side first, then the pairs in alternating order
    assert calls == [("b", 1), ("a", 1), ("b", 0), ("a", 0), ("a", 0), ("b", 0)]
    assert entry["trace_exit"] == {"before": 0, "after": 0}
    assert entry["per_layer_counts"]["quadforms.inertia.calls"] == {"before": 448, "after": 448}
    assert entry["wall_s"]["after_lower_in_pairs"] == 2
