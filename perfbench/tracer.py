"""Per-layer tracing of schurhr, installed from outside the package.

The tracer replaces functions of the schurhr modules with timing wrappers
and rebinds every module-level name that refers to an original, so calls
made through ``from .x import f`` bindings are recorded too.  Nothing in
the package is edited.

Spans are aggregated in memory as they close (calls, total time, self time
and the counters named in ``COUNTERS``, keyed by span name and by the
(parent, child) edge) and written out once, at the end.  A span's self
time is its duration minus the durations of the traced spans it called.
"""

import functools
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from multiprocessing import util

LAYERS = ("kernels", "polyring", "partitions", "schur", "cohomology",
          "bundles", "quadforms", "realroots", "analysis", "acceptance", "cli")

# Traced besides the public module-level functions: private helpers whose
# call counts are metrics, and the polynomial methods the metrics name.
EXTRA = {
    "analysis": ["_int_det"],
    "polyring": ["MultiPoly.substitute", "MultiPoly.hessian_of_partial"],
}


def _sizes(args, out):
    return {"term_products": len(args[0]) * len(args[1])}


def _sizes_out(args, out):
    return {"term_products": len(args[0]) * len(args[1]), "out_terms": len(out)}


COUNTERS = {
    "kernels.mul_terms": _sizes,
    "kernels.mul_terms_capped": _sizes_out,
}

# A call is a miss when it grew the module's cache.
CACHES = {
    "schur.schur_jt": "_jt_cache",
    "schur.derived_all": "_derived_cache",
}


class Stat:
    __slots__ = ("calls", "total", "self", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.counts = {}

    def add(self, other):
        self.calls += other.calls
        self.total += other.total
        self.self += other.self
        for k, v in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + v

    def to_json(self):
        return {"calls": self.calls, "total_s": self.total,
                "self_s": self.self, **self.counts}

    @classmethod
    def from_json(cls, data):
        s = cls()
        s.calls = data.pop("calls")
        s.total = data.pop("total_s")
        s.self = data.pop("self_s")
        s.counts = data
        return s


class Tracer:
    """Wraps schurhr functions and aggregates their spans."""

    def __init__(self):
        self.stats = {}
        self.edges = {}
        self.stack = [["", 0.0]]
        self.originals = {}  # span name -> original callable
        self.wrappers = {}   # id(original) -> wrapper
        self.pools_started = 0
        self.worker_dir = None

    # -- recording ----------------------------------------------------------

    def reset(self):
        self.stats.clear()
        self.edges.clear()
        del self.stack[1:]
        self.stack[0][1] = 0.0
        self.pools_started = 0

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        cache = None
        if name in CACHES:
            import schurhr.schur as schur_mod
            cache = getattr(schur_mod, CACHES[name], None)
        stack = self.stack
        stats = self.stats
        edges = self.edges
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            before = len(cache) if cache is not None else 0
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[1] += dt
                st = stats.get(name)
                if st is None:
                    st = stats[name] = Stat()
                st.calls += 1
                st.total += dt
                st.self += dt - frame[1]
                key = (parent[0], name)
                ed = edges.get(key)
                if ed is None:
                    ed = edges[key] = Stat()
                ed.calls += 1
                ed.total += dt
            counts = st.counts
            if counter is not None:
                for k, v in counter(args, out).items():
                    counts[k] = counts.get(k, 0) + v
            if cache is not None:
                counts["misses"] = counts.get("misses", 0) + (len(cache) > before)
            return out

        return traced

    # -- installation -------------------------------------------------------

    def _targets(self, modules):
        """(span name, owner, attribute, original) for everything traced.

        Generator functions are left alone: their work runs when the caller
        iterates, so it belongs to the caller's span."""
        out = []
        kernels = modules["kernels"]
        for attr in ("mul_terms", "mul_terms_capped", "add_scaled"):
            out.append((f"kernels.{attr}", kernels, attr, getattr(kernels, attr)))
        for layer in LAYERS:
            if layer == "kernels":
                continue
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                out.append((f"{layer}.{attr}", mod, attr, obj))
            for path in EXTRA.get(layer, ()):
                owner = mod
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                if owner is not None and callable(getattr(owner, attr, None)):
                    out.append((f"{layer}.{path}", owner, attr, vars(owner)[attr]))
        return out

    def install(self, modules):
        """Wrap every target and find every module-level alias of it; the
        wrappers are bound while the tracer is enabled."""
        self.sites = []
        for name, owner, attr, fn in self._targets(modules):
            wrapper = self._wrap(name, fn)
            self.originals[name] = fn
            self.wrappers[id(fn)] = wrapper
            self.sites.append((owner, attr, fn, wrapper))
        package = [m for n, m in sys.modules.items()
                   if n == "schurhr" or n.startswith("schurhr.")]
        for mod in package:
            for attr, obj in vars(mod).items():
                w = self.wrappers.get(id(obj))
                if w is not None:
                    self.sites.append((mod, attr, obj, w))
        acceptance = modules["acceptance"]
        criteria = [(cid, self.wrappers.get(id(fn), fn)) for cid, fn in acceptance.CRITERIA]
        self.sites.append((acceptance, "CRITERIA", acceptance.CRITERIA, criteria))
        pool = acceptance.ProcessPoolExecutor
        self.sites.append((acceptance, "ProcessPoolExecutor", pool, self._pool_class(pool)))
        self.enable()
        self._check_bindings(package)
        self.disable()

    def enable(self):
        for owner, attr, _, new in self.sites:
            setattr(owner, attr, new)

    def disable(self):
        for owner, attr, old, _ in self.sites:
            setattr(owner, attr, old)

    @contextmanager
    def enabled(self):
        self.enable()
        try:
            yield
        finally:
            self.disable()

    @contextmanager
    def disabled(self):
        self.disable()
        try:
            yield
        finally:
            self.enable()

    def _check_bindings(self, package):
        """Fail when an original is still reachable where calls can find it:
        a module global, a class attribute, or a list, tuple or dict held
        in a module global."""
        originals = {id(fn) for fn in self.originals.values()}
        missed = []
        for mod in package:
            for attr, obj in vars(mod).items():
                held = [obj]
                if isinstance(obj, (list, tuple)):
                    held += [x for item in obj
                             for x in (item if isinstance(item, tuple) else (item,))]
                elif isinstance(obj, dict):
                    held += list(obj.values())
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    held += list(vars(obj).values())
                if any(id(x) in originals for x in held):
                    missed.append(f"{mod.__name__}.{attr}")
        if missed:
            raise RuntimeError(f"tracer missed bindings: {sorted(missed)}")

    def _pool_class(self, base):
        tracer = self

        class CountingPool(base):
            """Counts pools; each forked worker traces into a fresh table
            and writes it out when the worker exits."""

            def __init__(self, *args, **kwargs):
                tracer.pools_started += 1
                kwargs.setdefault("initializer", tracer._worker_start)
                super().__init__(*args, **kwargs)

        return CountingPool

    def _worker_start(self):
        self.reset()
        util.Finalize(None, self._worker_dump, exitpriority=10)

    def _worker_dump(self):
        if self.worker_dir is None:
            return
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)

    # -- output -------------------------------------------------------------

    def to_json(self):
        return {
            "spans": {k: v.to_json() for k, v in sorted(self.stats.items())},
            "edges": [
                {"parent": p, "child": c, "calls": v.calls, "total_s": v.total}
                for (p, c), v in sorted(self.edges.items())
            ],
            "pools_started": self.pools_started,
            "traced": sorted(self.originals),
        }

    def merge_workers(self):
        """Fold the tables that pool workers wrote into this one."""
        if self.worker_dir is None:
            return 0
        names = sorted(n for n in os.listdir(self.worker_dir)
                       if n.startswith("worker-"))
        for n in names:
            path = os.path.join(self.worker_dir, n)
            with open(path) as fh:
                data = json.load(fh)
            os.remove(path)
            for name, st in data["spans"].items():
                self.stats.setdefault(name, Stat()).add(Stat.from_json(st))
        return len(names)


# -- per-layer metrics ----------------------------------------------------------

SPAN_METRICS = {
    "kernels.mul_terms": ("calls", "term_products", "self_s"),
    "kernels.add_scaled": ("calls", "self_s"),
    "kernels.mul_terms_capped": ("calls", "term_products", "out_terms", "self_s"),
    "polyring.poly_det": ("calls", "self_s"),
    "polyring.div_exact": ("calls", "self_s"),
    "polyring.MultiPoly.substitute": ("calls", "self_s"),
    "polyring.MultiPoly.hessian_of_partial": ("self_s",),
    "partitions.ssyt_weight_counts": ("self_s",),
    "schur.schur_jt": ("calls", "miss_ratio", "self_s"),
    "schur.derived_all": ("calls", "miss_ratio", "self_s"),
    "cohomology.class_det": ("calls", "self_s"),
    "bundles.chern_all": ("calls", "self_s"),
    "bundles.schur_class": ("self_s",),
    "bundles.derived_schur_classes": ("self_s",),
    "quadforms.intersection_form": ("self_s",),
    "quadforms.inertia": ("calls", "self_s"),
    "realroots.has_only_real_roots": ("calls", "self_s"),
    "analysis.polya_check_minors": ("self_s",),
    "analysis.lorentzian_check": ("calls", "self_s"),
    "analysis.lorentzian_witness": ("self_s",),
    "analysis.hessian_vs_intersection": ("self_s",),
    "analysis.kt_sequence": ("self_s",),
}
UNITS = {"calls": "count", "term_products": "count", "out_terms": "count",
         "miss_ratio": "ratio", "self_s": "s"}
N_CRITERIA = 11


def per_layer_spec():
    """(metric name, unit) for every per-layer metric, in report order."""
    spec = [(f"{span}.{field}", UNITS[field])
            for span, fields in SPAN_METRICS.items() for field in fields]
    spec.append(("analysis.minor_dets", "count"))
    spec += [(f"acceptance.crit{cid:02d}_s", "s") for cid in range(1, N_CRITERIA + 1)]
    spec += [("acceptance.pools_started", "count"), ("cli.overhead_s", "s")]
    spec += [(f"{layer}.self_s", "s") for layer in LAYERS]
    spec += [("trace.overhead_s", "s"), ("trace.unattributed_share", "ratio")]
    return spec


def metrics(trace, criteria, traced_wall, untraced_wall):
    """Per-layer metrics of one traced pass.

    ``trace`` is ``Tracer.to_json()`` plus ``attributed_s``, the self time
    of the spans of the measuring process; ``criteria`` maps each
    criterion id to its function's name.
    """
    spans = trace["spans"]

    def get(span, field):
        st = spans.get(span)
        if st is None:
            return 0
        if field == "miss_ratio":
            return st.get("misses", 0) / st["calls"]
        return st.get(field, 0)

    out = {f"{span}.{field}": get(span, field)
           for span, fields in SPAN_METRICS.items() for field in fields}
    out["analysis.minor_dets"] = get("analysis._int_det", "calls")
    for cid in range(1, N_CRITERIA + 1):
        name = criteria.get(cid)
        out[f"acceptance.crit{cid:02d}_s"] = get(f"acceptance.{name}", "total_s")
    out["acceptance.pools_started"] = trace["pools_started"]
    out["cli.overhead_s"] = get("cli.main", "total_s") - get("acceptance.run_all", "total_s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(st["self_s"] for name, st in spans.items()
                                     if name.startswith(layer + "."))
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.unattributed_share"] = 1 - trace["attributed_s"] / traced_wall
    return out


def present(metric, trace, criteria):
    """Whether the program still has what the metric measures."""
    traced = set(trace["traced"])
    if metric.startswith("acceptance.crit"):
        return int(metric[len("acceptance.crit"):][:2]) in criteria
    if metric == "analysis.minor_dets":
        return "analysis._int_det" in traced
    if metric == "cli.overhead_s":
        return "cli.main" in traced
    span = metric.rsplit(".", 1)[0]
    return span not in SPAN_METRICS or span in traced
