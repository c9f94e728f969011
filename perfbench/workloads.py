"""The benchmark's workloads: inputs built from a seed, one timed pass,
and the checks on the pass's outputs.

``verify`` and ``verify-parallel`` run ``schurhr verify`` in a fresh
interpreter per pass (pool workers fork, so a warm parent would hand them
its Schur cache).  ``symbolic`` and ``geometry`` run in-process and start
each pass from cleared caches.  They import schurhr names at call time, so
that the tracer's rebinding of those names (tracer.py) applies to them.
"""

import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from collections import namedtuple
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = json.loads((HERE / "reference.json").read_text())

# `schurhr verify` at its default seed, the invocation users run: every
# pass is checked byte for byte against the seed code's report, and the
# spread between runs is not dominated by the seed-dependent criterion 10
# (5.9 s to 9.0 s of work across seeds 0-11 on a 2-core Xeon).
VERIFY_SEED = 42
CHILD_TIMEOUT_S = 120


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("SCHURHR_SEED", "SCHURHR_WORKERS")}
    env["PYTHONPATH"] = str(SRC)
    env["SCHURHR_PURE_PYTHON"] = "1"
    return env


def run_child(argv, stdout=subprocess.DEVNULL):
    """Run a fresh interpreter; return (wall_s, exit code, rusage).

    The rusage comes from wait4 on the child and so covers the pool
    workers it reaped.  The child leads its own process group, which is
    killed if it outlives CHILD_TIMEOUT_S.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], stdout=stdout,
                            env=child_env(), cwd=ROOT, start_new_session=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return wall, proc.returncode, usage


class Checks:
    """Tally of output checks; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def __call__(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


Pass = namedtuple("Pass", "wall cpu rss_kb items", defaults=((),))


# -- verify ------------------------------------------------------------------


class Verify:
    """One `schurhr verify` run in a fresh interpreter."""

    def __init__(self, name, workers):
        self.name = name
        self.workers = workers
        self.expected_zero = {"acceptance.pools_started"} if workers == 1 else set()

    def setup(self, seed):
        import schurhr.cli  # noqa: F401  (what `python -m schurhr` imports)

    def _argv(self):
        return ["--seed", str(VERIFY_SEED), "--workers", str(self.workers)]

    def _check(self, checks, code, report_path):
        data = report_path.read_bytes()
        report_path.unlink()
        checks(code == 0, f"verify exited {code}")
        try:
            ok = json.loads(data).get("ok") is True
        except ValueError:
            ok = False
        checks(ok, 'report lacks "ok": true')
        digest = hashlib.sha256(data).hexdigest()
        checks(digest == REFERENCE["verify_report_sha256"],
               f"report sha256 {digest} differs from the seed code's")

    def run_pass(self, k, checks):
        path = OUT / f"{self.name}-report-{k}.json"
        with open(path, "wb") as fh:
            wall, code, ru = run_child(["-m", "schurhr", "verify", *self._argv()],
                                       stdout=fh)
        self._check(checks, code, path)
        return Pass(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss)

    def traced_pass(self, k, checks):
        """The same run under the tracer; returns (Pass, trace dict)."""
        path = OUT / f"{self.name}-report-traced-{k}.json"
        trace_path = OUT / f"trace-{self.name}.json"
        trace_path.unlink(missing_ok=True)
        with open(path, "wb") as fh:
            wall, code, ru = run_child(
                [str(HERE / "child.py"), "trace-verify", str(trace_path), *self._argv()],
                stdout=fh)
        self._check(checks, code, path)
        trace = json.loads(trace_path.read_text()) if trace_path.exists() else None
        checks(trace is not None, "traced verify wrote no trace")
        return Pass(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss), trace


# -- symbolic ----------------------------------------------------------------


class Symbolic:
    """Schur polynomials by Bareiss, their shift expansions, and
    perturbed Lorentzian certification, from cleared caches."""

    expected_zero = {
        "kernels.mul_terms_capped.", "cohomology.", "bundles.",
        "quadforms.intersection_form.", "realroots.", "partitions.",
        "analysis.polya_check_minors.", "analysis.minor_dets",
        "analysis.hessian_vs_intersection.", "analysis.kt_sequence.",
        "acceptance.", "cli.",
    }

    name = "symbolic"

    def setup(self, seed):
        from schurhr import partitions_of
        # s_lam vanishes in e variables when lam_1 > e: keep lam_1 <= e.
        self.jt_shapes = list(partitions_of(9, max_part=4))
        self.lor_shapes = [lam for w in (7, 8) for lam in partitions_of(w, max_part=3)]
        self.first = None

    def _work(self):
        from schurhr import lorentzian_check, schur
        jt = [schur.schur_jt(lam, 4) for lam in self.jt_shapes]
        derived = [schur.derived_all(lam, 4) for lam in self.jt_shapes]
        verdicts = []
        for lam in self.lor_shapes:
            p = schur.schur_jt(lam, 3).normalize()
            # criterion 11's fallback: a smaller epsilon when 1/100 fails
            ok = lorentzian_check(p, "perturbed", Fraction(1, 100)).ok
            if not ok:
                ok = lorentzian_check(p, "perturbed", Fraction(1, 1000)).ok
            verdicts.append(ok)
        return jt, derived, verdicts

    def run_pass(self, k, checks, quiet=nullcontext):
        from schurhr import schur
        with quiet():
            schur.clear_caches()
        c0, t0 = time.process_time(), time.perf_counter()
        out = self._work()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        with quiet():
            self._check(checks, out)
        return Pass(wall, cpu, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def _check(self, checks, out):
        from schurhr import schur
        jt, derived, verdicts = out
        for lam, ok in zip(self.lor_shapes, verdicts):
            checks(ok, f"perturbed Lorentzian certification fails for {lam.parts}")
        if self.first is not None:
            checks(out[:2] == self.first, "pass output differs from the first pass")
            return
        self.first = out[:2]
        for lam, p, slices in zip(self.jt_shapes, jt, derived):
            checks(p == schur.schur_ssyt(lam, 4), f"schur_jt != schur_ssyt at {lam.parts}")
            # s(x + t) at x = 1, t = 1 is s(2, 2, 2, 2) = sum_i s^(i)(1, 1, 1, 1)
            total = sum(s.evaluate([1] * 4) for s in slices)
            checks(slices[0] == p and total == p.evaluate([2] * 4),
                   f"derived_all slices of {lam.parts} do not sum to s(x + t)")


# -- geometry ----------------------------------------------------------------

# Every pass runs the same instances, so the fastest pass measures their
# cost and the spread between seeds stays that of 300 instances.
GEOMETRY_INSTANCES = 300
POLY_ROUTE_CHECKS = 16  # instances re-derived without the ring, first pass


Instance = namedtuple("Instance", "X E lam F lam2 mu")


def _weak_hr(m):
    """At most one positive eigenvalue, and not negative definite.

    Independent of schurhr.quadforms: the characteristic polynomial of a
    symmetric matrix is real-rooted, so Descartes' rule counts its positive
    roots exactly; zero roots are its vanishing low coefficients.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    c = [Fraction(0)] * n + [Fraction(1)]  # c[i] is the coefficient of x^i
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            mk[i][i] += c[n - k + 1]
        amk = [[sum(a[i][l] * mk[l][j] for l in range(n)) for j in range(n)]
               for i in range(n)]
        c[n - k] = -sum(amk[i][i] for i in range(n)) / k
        mk = amk
    signs = [x > 0 for x in reversed(c) if x]
    n_plus = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
    n_zero = next(i for i, x in enumerate(c) if x)
    return n_plus <= 1 and (n_plus == 1 or n_zero >= 1)


def _log_concave(values):
    return all(v >= 0 for v in values) and all(
        values[i - 1] * values[i + 1] <= values[i] * values[i]
        for i in range(1, len(values) - 1))


class Geometry:
    """Derived Schur classes, intersection forms and KT sequences of
    seeded random nef split bundles on products of 3-4 projective spaces."""

    expected_zero = {
        "kernels.mul_terms.", "polyring.", "partitions.", "schur.",
        "realroots.", "analysis.polya_check_minors.", "analysis.minor_dets",
        "analysis.lorentzian", "analysis.hessian_vs_intersection.",
        "acceptance.", "cli.",
    }

    name = "geometry"

    def setup(self, seed):
        from schurhr import Partition, Space, SplitBundle, partitions_of
        rng = random.Random(f"perfbench-geometry:{seed}")
        shapes = {}

        def partition(weight, max_part):
            key = (weight, max_part)
            if key not in shapes:
                shapes[key] = [p.parts for p in partitions_of(weight, max_part=max_part)]
            return Partition(rng.choice(shapes[key]))

        def bundle(X):
            lines = [tuple(rng.randint(0, 2) for _ in range(X.k))
                     for _ in range(rng.randint(1, 3))]
            twist = None
            if rng.random() < 0.5:  # a nonnegative twist keeps the bundle nef
                twist = [Fraction(rng.randint(0, 1), rng.randint(1, 3)) for _ in range(X.k)]
            return SplitBundle(X, lines, twist)

        def instance():
            k = rng.randint(3, 4)
            d = rng.randint(8, 13)
            cuts = sorted(rng.sample(range(1, d), k - 1))
            X = Space([b - a for a, b in zip((0, *cuts), (*cuts, d))])
            E, F = bundle(X), bundle(X)
            lam = partition(d - 2, E.rank)
            wl = rng.randint(1, 4)
            lam2 = partition(wl, E.rank)
            mu = partition(rng.randint(d - wl, d - wl + 2), F.rank)
            return Instance(X, E, lam, F, lam2, mu)

        self.instances = [instance() for _ in range(GEOMETRY_INSTANCES)]
        self.seed = seed

    def run_pass(self, k, checks, quiet=nullcontext):
        """Times each instance and checks it outside its timed span, so a
        pass holds one instance's classes at a time."""
        from schurhr import (derived_schur_classes, inertia, intersection_form,
                             kt_sequence, schur)
        with quiet():
            schur.clear_caches()
        clock, cpu_clock = time.perf_counter, time.process_time
        items, cpu = [], 0.0
        digest = hashlib.sha256()
        for i, inst in enumerate(self.instances):
            c0, t0 = cpu_clock(), clock()
            ds = derived_schur_classes(inst.lam, inst.E)
            form = intersection_form(ds[0], inst.X)
            inertia(form)
            seq = kt_sequence(inst.E, inst.F, inst.lam2, inst.mu)
            items.append(clock() - t0)
            cpu += cpu_clock() - c0
            with quiet():
                self._check(checks, f"pass {k} instance {i}", inst, ds, form, seq,
                            k == 0 and i < POLY_ROUTE_CHECKS)
            numbers = [*(v for row in form for v in row), *seq.values]
            digest.update((" ".join(str(Fraction(v)) for v in numbers) + "\n").encode())
        if k == 0:
            self.digest = digest.hexdigest()
            want = REFERENCE["geometry_sha256"].get(str(self.seed))
            if want is not None:
                checks(self.digest == want,
                       "intersection numbers differ from the seed code's")
        else:
            checks(digest.hexdigest() == self.digest,
                   f"pass {k} intersection numbers differ from the first pass")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return Pass(sum(items), cpu, rss, items)

    @staticmethod
    def _check(checks, where, inst, ds, form, seq, by_polynomials):
        from schurhr import CohClass, schur_class
        checks(_weak_hr(form), f"{where}: form not weak-HR")
        checks(_log_concave(seq.values), f"{where}: KT sequence not log-concave")
        # twist rule: s_lam(E(h)) = sum_i s_lam^(i)(E) h^i with h = sum of h_j
        X = inst.X
        h = CohClass.linear(X, [1] * X.k)
        lhs = schur_class(inst.lam, inst.E.twisted_by([1] * X.k))
        rhs, hp = CohClass.zero(X), CohClass.unit(X)
        for c in ds:
            rhs, hp = rhs + c * hp, hp * h
        checks(lhs == rhs, f"{where}: derived classes break the twist rule")
        if by_polynomials:
            checks(form == _form_by_polynomials(inst),
                   f"{where}: form differs from the polynomial route")


def _form_by_polynomials(inst):
    """The intersection form of s_lam(E) without the truncated ring:
    substitute the Chern roots (linear forms in the hyperplane classes y_j)
    into the Schur polynomial and read the coefficient of the top monomial
    after multiplying by y_i y_j."""
    from schurhr import MultiPoly, schur_jt
    X = inst.X
    k = X.k
    y = [MultiPoly.variable(j, k) for j in range(k)]
    roots = [sum((y[j].scale(v[j]) for j in range(k)), MultiPoly.zero(k))
             for v in inst.E.root_vectors()]
    p = schur_jt(inst.lam, inst.E.rank).substitute(roots)
    return tuple(tuple((p * y[i] * y[j]).coefficient(X.factors) for j in range(k))
                 for i in range(k))


WORKLOADS = {
    "verify": lambda: Verify("verify", 1),
    "verify-parallel": lambda: Verify("verify-parallel", len(os.sched_getaffinity(0))),
    "symbolic": Symbolic,
    "geometry": Geometry,
}
