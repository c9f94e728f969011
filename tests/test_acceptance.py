"""The acceptance gate: one test per exit criterion.

Each test prints a PASS/FAIL line (visible with -s) and enforces the
stated runtime budget where one exists.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from schurhr import acceptance

SEED = int(os.environ.get("SCHURHR_SEED", acceptance.DEFAULT_SEED))

BUDGETS = {1: 1.0, 2: 5.0, 3: 60.0, 10: 20.0, 11: 30.0}

_FN = dict(acceptance.CRITERIA)

REFERENCE = os.path.join(os.path.dirname(__file__), "..", "perfbench", "reference.json")


def _run(cid):
    t0 = time.perf_counter()
    record = _FN[cid](SEED)
    elapsed = time.perf_counter() - t0
    status = "PASS" if record["ok"] else "FAIL"
    print(f"criterion {cid:2d} [{record['name']}]: {status} "
          f"({record['checks']} checks, {elapsed:.2f}s)")
    for f in record["failures"][:5]:
        print(f"    {f}")
    budget = BUDGETS.get(cid)
    if budget is not None:
        assert elapsed < budget, f"criterion {cid} took {elapsed:.1f}s (budget {budget}s)"
    assert record["ok"], record["failures"][:5]


def test_criterion_01_convex_mix_form():
    _run(1)


def test_criterion_02_low_degree_closed_forms():
    _run(2)


def test_criterion_03_determinant_vs_tableaux():
    _run(3)


def test_criterion_04_box_dual_reversal():
    _run(4)


def test_criterion_05_twist_rule():
    _run(5)


def test_criterion_06_characteristic_number_positivity():
    _run(6)


def test_criterion_07_hodge_riemann_predicates():
    _run(7)


def test_criterion_08_log_concave_sequences():
    _run(8)


def test_criterion_09_index_inequalities():
    _run(9)


def test_criterion_10_polya_suite():
    _run(10)


def test_criterion_11_lorentzian_certification():
    _run(11)


def test_criterion_12_verify_is_byte_deterministic(tmp_path):
    # the README's claim: the report does not depend on --workers
    cmd = [sys.executable, "-m", "schurhr", "verify", "--seed", str(SEED), "--workers"]
    t0 = time.perf_counter()
    first = subprocess.run(cmd + ["1"], capture_output=True, timeout=900)
    second = subprocess.run(cmd + ["2"], capture_output=True, timeout=900)
    elapsed = time.perf_counter() - t0
    assert first.returncode == 0, first.stderr.decode()[:500]
    assert second.returncode == 0
    status = "PASS" if first.stdout == second.stdout else "FAIL"
    print(f"criterion 12 [verify-determinism]: {status} "
          f"(two full runs, {elapsed:.2f}s)")
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["ok"] is True
    assert [c["id"] for c in report["criteria"]] == list(range(1, 12))
    if SEED == 42:
        # the benchmark pins the default-seed report
        with open(REFERENCE) as fh:
            want = json.load(fh)["verify_report_sha256"]
        assert hashlib.sha256(first.stdout).hexdigest() == want


def _draw(i, rng):
    return [f"{i}:{rng.random()}"]


def _draw_two(i, first, second):
    return [f"{i}:{first.random()}:{second.random()}"]


def test_every_instance_draws_from_its_own_stream():
    jobs = [(_draw, ("a",), 5), (_draw_two, ("b", "c"), 3), (_draw, ("d",), 0)]
    want = [f"{i}:{acceptance._rng(SEED, f'a:{i}').random()}" for i in range(5)]
    want += [f"{i}:{acceptance._rng(SEED, f'b:{i}').random()}"
             f":{acceptance._rng(SEED, f'c:{i}').random()}" for i in range(3)]
    assert acceptance._run_sharded(SEED, None, *jobs) == want
    with acceptance.ProcessPoolExecutor(max_workers=2) as pool:
        assert acceptance._run_sharded(SEED, pool, *jobs) == want


def test_every_draw_of_a_run_is_an_instance_stream(monkeypatch):
    real, callers = acceptance._rng, set()

    def spy(seed, label):
        callers.add(sys._getframe(1).f_code.co_name)
        return real(seed, label)

    monkeypatch.setattr(acceptance, "_rng", spy)
    assert acceptance.run_all(SEED, workers=1)["ok"]
    assert callers == {"_instance"}


def test_rand_partition_draws_as_a_fresh_list_would():
    from schurhr.partitions import Partition, partitions_of

    def reference(rng, weight, max_part=None, max_len=None):
        if weight == 0:
            return Partition()
        return rng.choice(list(partitions_of(weight, max_part=max_part, max_len=max_len)))

    rng, ref = acceptance._rng(SEED, "pool"), acceptance._rng(SEED, "pool")
    shapes = random.Random(5)
    draws = 0
    while draws < 2000:
        weight, max_part, max_len = (shapes.randint(0, 9), shapes.choice([None, 1, 2, 3, 4]),
                                     shapes.choice([None, 2, 3]))
        if weight and not any(partitions_of(weight, max_part=max_part, max_len=max_len)):
            continue  # nothing to draw from
        args = (weight, max_part, max_len)
        assert acceptance._rand_partition(rng, *args) == reference(ref, *args)
        draws += 1
    assert rng.random() == ref.random()


def test_one_pool_per_run(monkeypatch):
    opened = []

    class CountingPool(acceptance.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(acceptance, "ProcessPoolExecutor", CountingPool)
    serial = acceptance.run_all(SEED, workers=1, criteria=[5, 9])
    assert opened == []
    assert acceptance.run_all(SEED, workers=2, criteria=[5, 9]) == serial
    assert opened == [2]
