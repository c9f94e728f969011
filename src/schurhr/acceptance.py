"""The acceptance suite: every exit criterion as a deterministic check.

Each criterion is a function (seed, pool) -> record dict.  A randomized
criterion hands its instances to ``_run_sharded`` as jobs (worker, labels,
n), and instance i of a job labelled L draws only from its own stream,
``random.Random(f"{seed}:{L}:{i}")``.  Every draw of the suite is made so,
each instance is judged once, no instance reads what another drew, and the
ordered pool map returns the failures in job order, so the report is
byte-identical for a fixed seed whatever the worker count.  ``run_all``
opens the one process pool of a run.
"""

import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from fractions import Fraction
from functools import cache, partial
from math import comb

from . import analysis, schur
from .bundles import SplitBundle, chern_all, chern_twist_rule_all, schur_class
from .cohomology import CohClass, Space
from .partitions import Partition, partitions_in_box, partitions_of, partitions_up_to
from .polyring import MultiPoly
from .quadforms import InertiaTriple, inertia, intersection_form
from .rationals import fmt_q

DEFAULT_SEED = 42


def _rng(seed, label):
    return random.Random(f"{seed}:{label}")


def _rand_fraction(rng, lo, hi, max_den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _rand_space(rng, dmin=2):
    d = rng.randint(dmin, 6)
    k = rng.randint(1, min(3, d))
    cuts = sorted(rng.sample(range(1, d), k - 1)) if k > 1 else []
    factors = []
    prev = 0
    for c in cuts + [d]:
        factors.append(c - prev)
        prev = c
    return Space(factors)


def _rand_partition(rng, weight, max_part=None, max_len=None):
    if weight == 0:
        return Partition()
    return rng.choice(_partition_pool(weight, max_part, max_len))


@cache
def _partition_pool(weight, max_part, max_len):
    """The partitions ``_rand_partition`` draws from, built on first use."""
    return tuple(partitions_of(weight, max_part=max_part, max_len=max_len))


def _rand_nef_bundle(rng, space, rank):
    lines = [tuple(rng.randint(0, 2) for _ in range(space.k)) for _ in range(rank)]
    tw = (
        tuple(_rand_fraction(rng, 0, 1) for _ in range(space.k))
        if rng.random() < 0.5
        else None
    )
    return SplitBundle(space, lines, tw)


def _rand_h11(rng, space, nonneg=False):
    coeffs = [_rand_fraction(rng, 0 if nonneg else -2, 2) for _ in range(space.k)]
    return CohClass.linear(space, coeffs)


def _rand_split(rng, total, parts):
    """A random ordered split of total into parts nonnegative ints."""
    out = []
    for _ in range(parts - 1):
        out.append(rng.randint(0, total))
        total -= out[-1]
    out.append(total)
    return out


def _rand_root_product(rng, k, hi):
    """Coefficients, constant term first, of (x + t_1) ... (x + t_k) for
    random fractions 0 <= t_i <= hi; a Polya frequency sequence."""
    coeffs = [Fraction(1)]
    for _ in range(k):
        t = _rand_fraction(rng, 0, hi)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for j, a in enumerate(coeffs):
            nxt[j] += a * t
            nxt[j + 1] += a
        coeffs = nxt
    return coeffs


def _instance(worker, seed, labels, i):
    # map opens every stream from this frame, not from a generator's
    return worker(i, *map(partial(_rng, seed), [f"{label}:{i}" for label in labels]))


def _run_sharded(seed, pool, *jobs):
    """The failures of worker(i, *rngs) for each job (worker, labels, n) and
    i < n, in that order, with one stream per label; on ``pool`` unless it
    is None.  On a pool, every job is queued before any result is read."""
    runs = []
    for worker, labels, n in jobs:
        # one partial per job, so a pool chunk pickles the worker once
        fn = partial(_instance, worker, seed, labels)
        if pool is None:
            runs.append(map(fn, range(n)))
        else:
            # _max_workers is the worker count the pool was opened with
            chunk = max(1, n // (pool._max_workers * 4))
            runs.append(pool.map(fn, range(n), chunksize=chunk))
    return [f for results in runs for r in results for f in r]


def _record(cid, name, checks, failures):
    return {
        "id": cid,
        "name": name,
        "ok": not failures,
        "checks": checks,
        "failures": failures[:20],
    }


# -- criterion 1: the convex-mix form on P2 x P3 ----------------------------

_CRIT1_FIXED = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3))


def _crit1_one(i, rng):
    """The fixed twists, then drawn ones; every t lies in (0, 1/2)."""
    t = _CRIT1_FIXED[i] if i < len(_CRIT1_FIXED) else Fraction(rng.randint(1, 9), 20)
    res = analysis.p2p3_convex_example(t)
    out = []
    if not res["matches_closed_form"]:
        out.append(f"matrix at t={t} differs from closed form")
    ti = inertia(res["matrix"])
    if ti != InertiaTriple(2, 0, 0):
        out.append(f"inertia at t={t} is {ti}")
    return out


def crit_convex_mix(seed, pool=None):
    n = 6
    failures = _run_sharded(seed, pool, (_crit1_one, ("mix",), n))
    return _record(1, "convex-mix-form", n, failures)


# -- criterion 2: low-degree closed forms -----------------------------------

def crit_low_degree_table(seed, pool=None):
    failures = []
    checks = 0
    for e in (3, 4, 5):
        for name, ok in schur.derived_table_check(e):
            checks += 1
            if not ok:
                failures.append(f"{name} fails at e={e}")
    for e in range(1, 6):
        for p in range(0, e + 1):
            checks += 1
            if not schur.elementary_row_check(p, e):
                failures.append(f"single-row rule fails at p={p}, e={e}")
    return _record(2, "low-degree-closed-forms", checks, failures)


# -- criterion 3: determinant route equals tableau route ---------------------

def _crit3_one(i):
    lam, e = _CRIT3_CASES[i]
    if schur.schur_jt(lam, e) != schur.schur_ssyt(lam, e):
        return [f"mismatch at lam={list(lam.parts)}, e={e}"]
    return []


_CRIT3_CASES = [
    (lam, e) for lam in partitions_up_to(8) for e in range(1, 5)
]


def crit_jt_equals_ssyt(seed, pool=None):
    failures = _run_sharded(seed, pool, (_crit3_one, (), len(_CRIT3_CASES)))
    return _record(3, "determinant-vs-tableaux", len(_CRIT3_CASES), failures)


# -- criterion 4: box-dual reversal ------------------------------------------

@cache
def _box_pool(e, N):
    """The partitions ``_crit4_one`` draws from, built on first use."""
    return tuple(partitions_in_box(e, N))


def _crit4_one(i, rng):
    e = rng.randint(1, 4)
    N = rng.randint(1, 5)
    lam = rng.choice(_box_pool(e, N))
    if not schur.dual_reversal_check(lam, e, N):
        return [f"reversal fails: lam={list(lam.parts)}, e={e}, N={N}"]
    return []


def crit_dual_reversal(seed, pool=None):
    n = 100
    failures = _run_sharded(seed, pool, (_crit4_one, ("dual",), n))
    return _record(4, "box-dual-reversal", n, failures)


# -- criterion 5: twist rule vs root expansion -------------------------------

def _crit5_one(i, rng):
    space = _rand_space(rng)
    rank = rng.randint(1, 4)
    lines = [
        tuple(rng.randint(-2, 3) for _ in range(space.k)) for _ in range(rank)
    ]
    delta = tuple(_rand_fraction(rng, -4, 4) for _ in range(space.k))
    E = SplitBundle(space, lines, delta)
    out = []
    for p, (root, rule) in enumerate(zip(chern_all(E), chern_twist_rule_all(E))):
        if root != rule:
            out.append(f"instance {i}: p={p} disagrees")
    return out


def crit_twist_rule(seed, pool=None):
    n = 200
    failures = _run_sharded(seed, pool, (_crit5_one, ("twist",), n))
    return _record(5, "twist-rule-vs-roots", n, failures)


# -- criterion 6: positivity of the characteristic numbers -------------------

def _crit6_one(i, rng):
    space = _rand_space(rng)
    d = space.dim
    e = rng.randint(1, 4)
    E = _rand_nef_bundle(rng, space, e)
    imax = max(0, min(2, 8 - d))
    order = rng.randint(0, imax)
    max_part = e if rng.random() < 0.9 else e + 1
    lam = _rand_partition(rng, d + order, max_part=max_part)
    v = analysis.fl_positivity(E, lam, order)
    if v < 0:
        return [f"instance {i}: integral {fmt_q(v)} < 0"]
    return []


def _crit6m_one(i, rng):
    space = _rand_space(rng)
    d = space.dim
    degs = _rand_split(rng, d, rng.randint(1, 3))
    bundles, lams, orders = [], [], []
    for deg in degs:
        e = rng.randint(1, 3)
        order = rng.randint(0, 1) if deg + 1 <= 8 else 0
        bundles.append(_rand_nef_bundle(rng, space, e))
        lams.append(_rand_partition(rng, deg + order, max_part=e))
        orders.append(order)
    v = analysis.monomial_positivity(bundles, lams, orders)
    if v < 0:
        return [f"monomial instance {i}: integral {fmt_q(v)} < 0"]
    return []


def crit_fl_positivity(seed, pool=None):
    n, n_mono = 500, 200
    failures = _run_sharded(seed, pool, (_crit6_one, ("fl",), n), (_crit6m_one, ("flm",), n_mono))
    return _record(6, "characteristic-number-positivity", n + n_mono, failures)


# -- criterion 7: one positive eigenvalue under ample twists -----------------

def _crit7_one(i, rng):
    space = _rand_space(rng)
    d = space.dim
    e = rng.randint(1, 4)
    E = _rand_nef_bundle(rng, space, e)
    lam = _rand_partition(rng, d - 2, max_part=e)
    h = [rng.randint(1, 2) for _ in range(space.k)]
    out = []
    t = min(Fraction(rng.randint(1, 8), rng.randint(1, 8)), Fraction(1))
    # h is ample and t > 0, so E<t*h> is ample: this one twist decides
    if not inertia(analysis.twisted_schur_form(E, lam, h, t)).is_hr:
        out.append(f"instance {i}: not HR at t={t}")
    if not inertia(intersection_form(schur_class(lam, E), space)).is_weak_hr:
        out.append(f"instance {i}: untwisted form not weak-HR")
    return out


def _crit7m_one(i, rng):
    space = _rand_space(rng, dmin=3)
    d = space.dim
    degs = _rand_split(rng, d - 2, rng.randint(1, 2))
    omega = CohClass.unit(space)
    for deg in degs:
        e = rng.randint(1, 3)
        E = _rand_nef_bundle(rng, space, e)
        omega = omega * schur_class(_rand_partition(rng, deg, max_part=e), E)
    if not inertia(intersection_form(omega, space)).is_weak_hr:
        return [f"monomial instance {i}: product form not weak-HR"]
    return []


def crit_hr_predicates(seed, pool=None):
    n, n_mono = 200, 100
    failures = _run_sharded(seed, pool, (_crit7_one, ("hr",), n), (_crit7m_one, ("hrm",), n_mono))
    return _record(7, "hodge-riemann-predicates", n + n_mono, failures)


# -- criterion 8: log-concave sequences --------------------------------------

def _crit8_kt_one(i, rng):
    space = _rand_space(rng)
    d = space.dim
    eE, eF = rng.randint(1, 3), rng.randint(1, 3)
    E = _rand_nef_bundle(rng, space, eE)
    F = _rand_nef_bundle(rng, space, eF)
    wl = rng.randint(1, 6)
    wm = rng.randint(max(1, d - wl), 6)
    lam = _rand_partition(rng, wl, max_part=eE)
    mu = _rand_partition(rng, wm, max_part=eF)
    seq = analysis.kt_sequence(E, F, lam, mu)
    if not analysis.is_log_concave(seq):
        return [f"kt instance {i} not log-concave: {[fmt_q(v) for v in seq.values]}"]
    return []


def _crit8_seq_one(i, rng, rng2):
    """Two checks: a derived value sequence and a pair value sequence."""
    out = []
    e = rng.randint(1, 4)
    lam = _rand_partition(rng, rng.randint(1, 6), max_part=e)
    x = [_rand_fraction(rng, 0, 10) for _ in range(e)]
    if not analysis.is_log_concave(analysis.derived_value_sequence(lam, x)):
        out.append(f"derived values not log-concave at instance {i}")
    e1, e2 = rng2.randint(1, 3), rng2.randint(1, 3)
    lam1 = _rand_partition(rng2, rng2.randint(1, 5), max_part=e1)
    mu1 = _rand_partition(rng2, rng2.randint(1, 5), max_part=e2)
    d = rng2.randint(1, lam1.weight + mu1.weight)
    x1 = [_rand_fraction(rng2, 0, 10) for _ in range(e1)]
    y1 = [_rand_fraction(rng2, 0, 10) for _ in range(e2)]
    if not analysis.is_log_concave(
        analysis.pair_value_sequence(lam1, mu1, d, x1, y1)
    ):
        out.append(f"pair values not log-concave at instance {i}")
    return out


def _crit8_newton_one(i, rng):
    """Newton's ultra-log-concavity for the single-row shapes, 20 per e <= 5."""
    e = 1 + i // 20
    x = [_rand_fraction(rng, 0, 9) for _ in range(e)]
    seq = analysis.derived_value_sequence((e,), x)
    if not analysis.is_ultra_log_concave(seq.values):
        return [f"ultra-log-concavity fails at e={e}, x={x}"]
    return []


def crit_kt_log_concavity(seed, pool=None):
    n_kt, n_seq, n_newton = 200, 1000, 100
    failures = _run_sharded(seed, pool, (_crit8_kt_one, ("kt",), n_kt),
                            (_crit8_seq_one, ("seq", "pair"), n_seq),
                            (_crit8_newton_one, ("newton",), n_newton))
    return _record(8, "log-concave-sequences", n_kt + 2 * n_seq + n_newton, failures)


# -- criterion 9: index-type inequalities ------------------------------------

def _crit9_hi_one(i, rng):
    space = _rand_space(rng)
    d = space.dim
    e = rng.randint(1, 4)
    E = _rand_nef_bundle(rng, space, e)
    lam = _rand_partition(rng, d - 2, max_part=e)
    omega = schur_class(lam, E)
    alpha = _rand_h11(rng, space)
    beta = _rand_h11(rng, space, nonneg=True)
    res = analysis.hodge_index_check(omega, alpha, beta)
    if not res.ok:
        return [f"hodge-index violated at instance {i}: {fmt_q(res.lhs)} > {fmt_q(res.rhs)}"]
    return []


def _crit9_imp_one(i, rng):
    space = _rand_space(rng)
    d = space.dim
    e = rng.randint(1, 4)
    E = _rand_nef_bundle(rng, space, e)
    lam = _rand_partition(rng, d - 1, max_part=e)
    h = _rand_h11(rng, space, nonneg=True)
    alpha = _rand_h11(rng, space)
    res = analysis.schur_hodge_improved_check(E, h, lam, alpha)
    if not res.ok:
        return [f"improved inequality violated at instance {i}: {fmt_q(res.lhs)} > {fmt_q(res.rhs)}"]
    return []


def crit_index_inequalities(seed, pool=None):
    n_hi, n_imp = 300, 300
    failures = _run_sharded(seed, pool, (_crit9_hi_one, ("hi",), n_hi),
                            (_crit9_imp_one, ("imp",), n_imp))
    return _record(9, "index-type-inequalities", n_hi + n_imp, failures)


# -- criterion 10: Polya frequency suite --------------------------------------

_NASTY = [
    (1, 1, 1),
    (2, 3, 2),
    (5, 6, 2),
    (2, 6, 5),
    (5, 4, 1),
    (1, 1, 1, 1),
    (3, 9, 7),
    (1, 2, 2, 1),
    (1, 1, 1, 1, 1, 1),
]


def _polya_corpus_item(rng, kind):
    if kind == 0:  # scaled binomial row
        n = rng.randint(1, 5)
        c = _rand_fraction(rng, 1, 5)
        return [c * comb(n, k) for k in range(n + 1)]
    if kind == 1:  # product of linear factors with nonnegative roots
        return _rand_root_product(rng, rng.randint(1, 5), 4)
    L = rng.randint(2, 6)  # adversarial random draw
    return [_rand_fraction(rng, 0, 9) for _ in range(L)]


def _crit10_agree_one(i, rng):
    if i < len(_NASTY):
        vals = list(_NASTY[i])
    else:  # 30 of each corpus kind, then random draws
        vals = _polya_corpus_item(rng, min(2, (i - len(_NASTY)) // 30))
    minors = analysis.polya_check_minors(vals)
    roots = analysis.polya_check_roots(vals)
    if minors != roots:
        return [
            f"route disagreement at instance {i}: minors={minors}, roots={roots},"
            f" seq={[fmt_q(v) for v in vals]}"
        ]
    return []


def _crit10_comb_one(i, rng):
    space = _rand_space(rng, dmin=4)
    d = space.dim
    e = rng.randint(1, 3)
    E = _rand_nef_bundle(rng, space, e)
    lam = _rand_partition(rng, d - 2, max_part=e)
    h = CohClass.linear(space, [rng.randint(0, 2) for _ in range(space.k)])
    coeffs = _rand_root_product(rng, d - 2, 3)
    omega = analysis.polya_combination_class(lam, E, h, coeffs)
    if not inertia(intersection_form(omega, space)).is_weak_hr:
        return [f"PF combination not weak-HR at instance {i}"]
    return []


def crit_polya_suite(seed, pool=None):
    n_agree, n_comb = 200, 100
    ts = (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5))
    failures = _run_sharded(seed, pool, (_crit10_agree_one, ("polya",), n_agree),
                            (_crit10_comb_one, ("pcomb",), n_comb))
    for t in ts:
        if inertia(analysis.p2p3_convex_example(t)["matrix"]).is_weak_hr:
            failures.append(f"non-PF mix unexpectedly weak-HR at t={t}")
    return _record(10, "polya-frequency-suite", n_agree + n_comb + len(ts), failures)


# -- criterion 11: Lorentzian certification -----------------------------------

_CRIT11_CASES = [
    (lam, e)
    for e in (1, 2, 3)
    for w in range(2, 7)
    for lam in partitions_of(w, max_part=e)
]


def _crit11_lor_one(i):
    lam, e = _CRIT11_CASES[i]
    p = schur.schur_jt(lam, e).normalize()
    if not analysis.lorentzian_check(p, "perturbed", Fraction(1, 100)).ok:
        return [f"perturbed certification fails: lam={list(lam.parts)}, e={e}"]
    return []


def _crit11_bridge_one(i, rng):
    e = rng.randint(1, 3)
    d = rng.randint(2, 5)
    nterms = rng.randint(1, 6)
    terms = {}
    for _ in range(nterms):
        exps = [0] * e
        for _ in range(d):
            exps[rng.randrange(e)] += 1
        terms[tuple(exps)] = rng.randint(-3, 3)
    p = MultiPoly(e, terms)
    if p.is_zero:
        p = MultiPoly.variable(0, e) ** d
    alpha = [0] * e
    for _ in range(d - 2):
        alpha[rng.randrange(e)] += 1
    eprime = max(p.per_variable_degrees()) + rng.randint(0, 2)
    if not analysis.lemma_bridge_check(p, eprime, alpha):
        return [f"bridge identity fails at instance {i}"]
    return []


def _crit11_hvi_one(i, rng):
    e = rng.randint(2, 3)
    w = rng.randint(2, 5)
    lam = _rand_partition(rng, w, max_part=e)
    # every factor dimension N - alpha_j must stay positive
    N = max(e, lam.length, rng.randint(e, 4), 1 + -(-(w - 2) // e))
    alpha = [0] * e
    for _ in range(w - 2):
        j = rng.randrange(e)
        if alpha[j] >= N - 1:
            j = min(range(e), key=lambda m: alpha[m])
        alpha[j] += 1
    eps = rng.choice([Fraction(0), Fraction(1, 100), Fraction(1, 10), _rand_fraction(rng, 0, 1, 9)])
    if not analysis.hessian_vs_intersection(lam, e, N, alpha, eps):
        return [f"hessian/form identity fails at instance {i}"]
    return []


def crit_lorentzian(seed, pool=None):
    n_lor, n_bridge, n_hvi = len(_CRIT11_CASES), 50, 50
    failures = _run_sharded(seed, pool, (_crit11_lor_one, (), n_lor),
                            (_crit11_bridge_one, ("bridge",), n_bridge),
                            (_crit11_hvi_one, ("hvi",), n_hvi))
    return _record(11, "lorentzian-certification", n_lor + n_bridge + n_hvi, failures)


# -- registry -----------------------------------------------------------------

CRITERIA = [
    (1, crit_convex_mix),
    (2, crit_low_degree_table),
    (3, crit_jt_equals_ssyt),
    (4, crit_dual_reversal),
    (5, crit_twist_rule),
    (6, crit_fl_positivity),
    (7, crit_hr_predicates),
    (8, crit_kt_log_concavity),
    (9, crit_index_inequalities),
    (10, crit_polya_suite),
    (11, crit_lorentzian),
]


def run_all(seed=DEFAULT_SEED, workers=1, criteria=None):
    """Run the suite; deterministic report for a fixed seed.

    With workers > 1 one process pool serves every criterion of the run;
    otherwise everything runs in this process.
    """
    wanted = set(criteria) if criteria else {cid for cid, _ in CRITERIA}
    chosen = [fn for cid, fn in CRITERIA if cid in wanted]
    opened = ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext()
    with opened as pool:
        records = [fn(seed, pool) for fn in chosen]
    return {
        "seed": seed,
        "ok": all(r["ok"] for r in records),
        "criteria": records,
    }
