"""Entry point of the fresh interpreters the benchmark starts.

    child.py setup WORKLOAD SEED        import schurhr and build the inputs
    child.py trace-verify OUT ARGS...   `schurhr verify ARGS` under the tracer,
                                        spans written to OUT as JSON
    child.py reference                  print the digests reference.json stores

schurhr is found through PYTHONPATH, which the benchmark sets to src/.
reference.json holds the digests of the code the benchmark was written
against; regenerate it only when an output is meant to change:

    PYTHONPATH=src python3 perfbench/child.py reference > reference.new
    mv reference.new perfbench/reference.json
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys


def trace_verify(out_path, argv):
    import tracer
    from workloads import OUT
    modules = {layer: importlib.import_module(f"schurhr.{layer}")
               for layer in tracer.LAYERS}
    tr = tracer.Tracer()
    tr.install(modules)
    tr.worker_dir = str(OUT / f"workers-{os.getpid()}")
    os.makedirs(tr.worker_dir, exist_ok=True)
    with tr.enabled():
        code = modules["cli"].main(["verify", *argv])
    sys.stdout.flush()
    attributed = sum(st.self for st in tr.stats.values())
    merged = tr.merge_workers()
    data = tr.to_json()
    data["attributed_s"] = attributed
    data["workers_merged"] = merged
    os.rmdir(tr.worker_dir)
    with open(out_path, "w") as fh:
        json.dump(data, fh)
    return code


def reference():
    from workloads import VERIFY_SEED, Checks, Geometry, child_env
    report = subprocess.run(
        [sys.executable, "-m", "schurhr", "verify", "--seed", str(VERIFY_SEED),
         "--workers", "1"], env=child_env(), stdout=subprocess.PIPE, check=True).stdout
    digests = {}
    for seed in [*range(32), 42]:
        geo = Geometry()
        geo.setup(seed)
        geo.run_pass(0, Checks())
        digests[str(seed)] = geo.digest
    print(json.dumps({"verify_report_sha256": hashlib.sha256(report).hexdigest(),
                      "geometry_sha256": digests}, indent=1))
    return 0


def main(argv):
    if argv[0] == "setup":
        from workloads import WORKLOADS
        WORKLOADS[argv[1]]().setup(int(argv[2]))
        return 0
    if argv[0] == "trace-verify":
        return trace_verify(argv[1], argv[2:])
    if argv[0] == "reference":
        return reference()
    raise SystemExit(f"unknown command {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
