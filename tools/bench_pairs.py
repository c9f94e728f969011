"""Paired end-to-end benchmark runs of two checkouts, written as BENCH_*.json.

    python3 tools/bench_pairs.py --before PARENT_DIR --after CHILD_DIR \\
        --workload geometry --seed 7 --pairs 10 --seconds 25 --out BENCH_REV.json

Each pair runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout, each in a fresh interpreter from the root of that
checkout: the before checkout first on even pairs (0, 2, ...), the after
checkout first on odd ones, so a drift in machine load falls on both sides.
``--workload`` may be given more than once; the workloads run one after the
other, each with its own pairs.

For every end-to-end metric the file gives, per side, the median and the
quartiles q1 and q3 (``statistics.quantiles``, inclusive method) over the
pairs, and ``after_lower_in_pairs``, the number of pairs in which the after
run read lower, and a ``verdict`` (see ``verdict``) against the bound in
``BENCHMARK.json`` ``end_to_end`` of the before checkout.  It also gives the
pass count of every run, the runs whose checks failed or that exited nonzero,
the machine, and both revisions.  An existing file at ``--out`` keeps its
entries for other workloads and seeds.  The last line printed lists every
verdict.

Each workload also gets one ``run.py --trace 1`` run of ``TRACE_SECONDS``
per side, before the pairs, and its entry holds ``per_layer_counts``: the
before and after value of every count metric (the names ending in
``.calls``, ``.term_products`` or ``.out_terms``; see ``counts_of``), and
``trace_exit``, the exit code of each traced run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
COUNTS = (".calls", ".term_products", ".out_terms")
TRACE_SECONDS = 5


def quartiles(values):
    """{"median", "q1", "q3"} of at least two values, rounded to 4 places."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def verdict(before, after, bound):
    """How the after runs of one lower-is-better metric compare, paired by
    position with the before runs; the first rule that applies decides.

    - "worse": the after median exceeds the before median by more than bound;
    - "unresolved": the before IQR is wider than bound, unless every after
      run reads lower than every before run;
    - "lower": the after run reads lower in at least 9 of 10 pairs (ties
      count for neither side), and the median drop exceeds the before IQR;
    - "no change": otherwise.
    """
    q1, median, q3 = statistics.quantiles(before, n=4, method="inclusive")
    drop, iqr = median - statistics.median(after), q3 - q1
    if -drop > bound:
        return "worse"
    if iqr > bound and max(after) >= min(before):
        return "unresolved"
    lower = sum(y < x for x, y in zip(before, after))
    if 10 * lower >= 9 * len(before) and drop > iqr:
        return "lower"
    return "no change"


def summarize(before, after, bounds):
    """Per metric, the quartiles of each side, the pairs where after < before
    and the verdict against ``bounds[metric]``.

    ``before`` and ``after`` are lists of {metric: value}, one per run,
    paired by position.
    """
    if len(before) != len(after) or len(before) < 2:
        raise ValueError("need at least two pairs of runs")
    out = {}
    for name in METRICS:
        b = [run[name] for run in before]
        a = [run[name] for run in after]
        out[name] = {
            "before": quartiles(b),
            "after": quartiles(a),
            "after_lower_in_pairs": sum(y < x for x, y in zip(b, a)),
            "verdict": verdict(b, a, bounds[name]),
        }
    return out


def counts_of(metrics):
    """{name: value} of the count metrics in the "metrics" object of a
    ``--trace 1`` result; a whole value becomes an int."""
    out = {}
    for name, m in metrics.items():
        if name.endswith(COUNTS):
            v = m["value"]
            out[name] = int(v) if float(v).is_integer() else v
    return out


def per_layer_counts(before, after):
    """{name: {"before", "after"}} over the count metrics of either side, by
    name; a side that lacks a metric reads None."""
    return {name: {"before": before.get(name), "after": after.get(name)}
            for name in sorted(before.keys() | after.keys())}


def bounds_of(checkout):
    """{metric: bound} from the ``end_to_end`` list of a checkout's BENCHMARK.json."""
    doc = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in doc["end_to_end"]}


def run_json(checkout, workload, seed, seconds, trace):
    """One ``run.py`` run: (its output lines, its last line as JSON, exit code)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"bench_pairs: no result from {checkout}:\n{proc.stderr[-2000:]}")
    return lines, json.loads(lines[-1]), proc.returncode


def run_once(checkout, workload, seed, seconds):
    """One ``run.py --trace 0`` run: (metrics, pass count, checks failed, exit code)."""
    lines, result, code = run_json(checkout, workload, seed, seconds, 0)
    metrics = {name: result["metrics"][name]["value"] for name in METRICS}
    passes = next(int(ln.split()[1].rstrip(":")) for ln in lines if ln.startswith("passes "))
    return metrics, passes, result["failed"], code


def traced_counts(before_dir, after_dir, workload, seed):
    """``per_layer_counts`` and ``trace_exit`` of one ``--trace 1`` run per side."""
    counts, codes = {}, {}
    for side, checkout in (("before", before_dir), ("after", after_dir)):
        _, result, codes[side] = run_json(checkout, workload, seed, TRACE_SECONDS, 1)
        counts[side] = counts_of(result["metrics"])
    return {"per_layer_counts": per_layer_counts(counts["before"], counts["after"]),
            "trace_exit": codes}


def pairs(before_dir, after_dir, workload, seed, count, seconds, bounds):
    """The entry of one workload and seed: ``count`` alternating pairs, after
    the traced runs."""
    traced = traced_counts(before_dir, after_dir, workload, seed)
    sides = {"before": [], "after": []}
    for k in range(count):
        order = [("before", before_dir), ("after", after_dir)]
        if k % 2:
            order.reverse()
        for side, checkout in order:
            sides[side].append(run_once(checkout, workload, seed, seconds))
        wall = {side: runs[-1][0]["wall_s"] for side, runs in sides.items()}
        print(f"{workload}:{seed} pair {k}: wall_s before {wall['before']:.4f}"
              f" after {wall['after']:.4f}", flush=True)
    entry = {
        "pairs": count,
        "seconds": seconds,
        "passes": {side: [r[1] for r in runs] for side, runs in sides.items()},
        "checks_failed": {side: sum(r[2] for r in runs) for side, runs in sides.items()},
        "exit_nonzero": {side: sum(r[3] != 0 for r in runs) for side, runs in sides.items()},
    }
    entry.update(summarize([r[0] for r in sides["before"]], [r[0] for r in sides["after"]],
                           bounds))
    entry.update(traced)
    return entry


def revision(checkout):
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cores": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "os": platform.system()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", required=True, type=Path, help="parent checkout")
    parser.add_argument("--after", required=True, type=Path, help="child checkout")
    parser.add_argument("--workload", required=True, action="append")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--before-rev", help="default: git rev-parse HEAD of --before")
    parser.add_argument("--after-rev", help="default: git rev-parse HEAD of --after")
    parser.add_argument("--claim", default="none")
    parser.add_argument("--about", default="")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.update({
        "about": args.about or doc.get("about", ""),
        "before_rev": args.before_rev or revision(args.before),
        "after_rev": args.after_rev or revision(args.after),
        "machine": machine(),
        "claim": args.claim,
    })
    end_to_end = doc.setdefault("end_to_end", {})
    bounds = bounds_of(args.before)
    verdicts = []
    for workload in args.workload:
        entry = pairs(args.before, args.after, workload, args.seed, args.pairs, args.seconds,
                      bounds)
        end_to_end[f"{workload}:{args.seed}"] = entry
        verdicts.append(f"{workload}:{args.seed} " + ", ".join(
            f"{name} {entry[name]['verdict']}" for name in METRICS))
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
        wall = entry["wall_s"]
        drop = wall["before"]["median"] - wall["after"]["median"]
        iqr = wall["before"]["q3"] - wall["before"]["q1"]
        print(f"{workload}:{args.seed} wall_s median {wall['before']['median']} -> "
              f"{wall['after']['median']}, lower in {wall['after_lower_in_pairs']} of "
              f"{args.pairs} pairs; median drop {drop:.4f} vs before IQR {iqr:.4f}")
    print("verdicts: " + "; ".join(verdicts))


if __name__ == "__main__":
    main()
