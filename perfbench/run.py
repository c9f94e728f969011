"""End-to-end and per-layer benchmark of schurhr (pure-Python backend).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify, verify-parallel, symbolic, geometry (see workloads.py
and BENCHMARK.json for why each exists).  All four, from the root of a
checkout whose src/ holds schurhr:

    for w in verify verify-parallel symbolic geometry; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25
    done

--trace 0 measures passes for about S seconds (at least three) and prints
the end-to-end metrics: setup_s (median of fresh interpreters that import
schurhr and build the inputs), wall_s and cpu_s of the fastest pass, and
peak_rss_mb; geometry also prints item_p50_ms and item_p95_ms over its
timed instances.  --trace 1 alternates an untraced pass with a pass under
the tracer and prints the per-layer metrics (medians over the traced
passes; see tracer.py).  On verify-parallel the spans of the pool workers
are merged in, so layer times there add up over processes.  The spans are
also written to .perfbench/trace-WORKLOAD.json.

Every output is checked; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}, and the exit code is
1 when a check failed and 2 when the benchmark could not run.
"""

import argparse
import importlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_PASSES = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_schurhr():
    """Import schurhr from this checkout's src/ and nowhere else."""
    if not (SRC / "schurhr" / "__init__.py").is_file():
        fail(f"no schurhr package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["SCHURHR_PURE_PYTHON"] = "1"
    import schurhr
    if Path(schurhr.__file__).resolve().parent != SRC / "schurhr":
        fail(f"imported schurhr from {schurhr.__file__}, not from {SRC}")
    return schurhr


def metadata(args, schurhr, workers):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    rev = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or rev
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "kernel_backend": schurhr.KERNEL_BACKEND,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "git_rev": rev,
        "verify_workers": workers,
    }


def measure_setup(name, seed):
    from workloads import run_child
    walls = []
    for _ in range(SETUP_REPEATS):
        wall, code, _ = run_child([str(HERE / "child.py"), "setup", name, str(seed)])
        if code != 0:
            fail(f"setup of {name} exited {code}")
        walls.append(wall)
    return statistics.median(walls)


def repeat(seconds, one, minimum):
    """Call one(k) for k = 0, 1, ... until about `seconds` have passed,
    at least `minimum` times; the next call is skipped when the mean time
    per call says it would end past the deadline."""
    out = []
    t0 = time.perf_counter()
    while True:
        out.append(one(len(out)))
        n = len(out)
        if n >= minimum and (time.perf_counter() - t0) * (n + 1) / n > seconds:
            return out


def quantile_ms(xs, q):
    """q-th percentile in ms, with the count of samples above it."""
    cuts = statistics.quantiles(xs, n=100, method="inclusive")
    value = cuts[q - 1]
    return value * 1e3, sum(1 for x in xs if x > value)


def plain_run(wl, args, checks):
    setup_s = measure_setup(wl.name, args.seed)
    passes = repeat(args.seconds, lambda k: wl.run_pass(k, checks), MIN_PASSES)
    metrics = {
        "setup_s": (setup_s, "s"),
        # Slowdowns from other tenants are one-sided and last seconds, so the
        # fastest pass is the steadiest estimate of a pass's cost.
        "wall_s": (min(p.wall for p in passes), "s"),
        "cpu_s": (min(p.cpu for p in passes), "s"),
        "peak_rss_mb": (max(p.rss_kb for p in passes) / 1024, "MB"),
    }
    notes = [f"passes {len(passes)}: wall_s " + " ".join(f"{p.wall:.3f}" for p in passes)
             + ", cpu_s " + " ".join(f"{p.cpu:.3f}" for p in passes)]
    items = [x for p in passes for x in p.items]
    if items:
        for q in (50, 95):
            value, above = quantile_ms(items, q)
            notes.append(f"item_p{q}_ms {value:.3f} ms ({len(items)} items, {above} above)")
    return metrics, notes


def traced_run(wl, args, checks):
    import tracer
    from schurhr import acceptance
    criteria = {cid: fn.__name__ for cid, fn in acceptance.CRITERIA}
    if hasattr(wl, "traced_pass"):
        traced = wl.traced_pass
    else:
        modules = {layer: importlib.import_module(f"schurhr.{layer}")
                   for layer in tracer.LAYERS}
        tr = tracer.Tracer()
        tr.install(modules)

        def traced(k, checks):
            tr.reset()
            with tr.enabled():
                p = wl.run_pass(k, checks, quiet=tr.disabled)
            trace = tr.to_json()
            trace["attributed_s"] = sum(st.self for st in tr.stats.values())
            (ROOT / ".perfbench" / f"trace-{wl.name}.json").write_text(json.dumps(trace))
            return p, trace

    def pair(k):
        untraced = wl.run_pass(k, checks)
        p, trace = traced(k, checks)
        if trace is None:
            return None
        return tracer.metrics(trace, criteria, p.wall, untraced.wall), trace

    runs = [r for r in repeat(args.seconds, pair, 1) if r is not None]
    if not runs:
        return {}, ["no trace was recorded"]
    spec = tracer.per_layer_spec()
    metrics = {name: (statistics.median(r[0][name] for r in runs), unit)
               for name, unit in spec}
    trace = runs[0][1]
    for name, _ in spec:
        if any(name.startswith(prefix) for prefix in wl.expected_zero):
            continue
        if tracer.present(name, trace, criteria):
            checks(metrics[name][0] != 0, f"per-layer metric {name} reads zero")
    return metrics, [f"traced passes {len(runs)}"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    schurhr = import_schurhr()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    workloads.OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]()
    print("meta " + json.dumps(metadata(args, schurhr, getattr(wl, "workers", None))))
    wl.setup(args.seed)
    checks = workloads.Checks()
    if args.trace:
        metrics, notes = traced_run(wl, args, checks)
    else:
        metrics, notes = plain_run(wl, args, checks)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for note in notes:
        print(note)
    print(f"fail_ratio {checks.failed / max(checks.attempted, 1):.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks)")
    for message in checks.messages:
        print(f"FAILED: {message}")
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
