"""The per-layer tracer of ``perfbench/tracer.py`` installs on the package.

It wraps functions by name, so renaming one of them fails here, and not
only in the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

from schurhr import MultiPoly

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_records_the_kernels():
    tracer = _tracer_module()
    modules = {layer: importlib.import_module(f"schurhr.{layer}") for layer in tracer.LAYERS}
    acceptance = modules["acceptance"]
    pool = acceptance.ProcessPoolExecutor
    tr = tracer.Tracer()
    tr.install(modules)  # raises when a wrapped original stays reachable
    for name in ["kernels.mul_terms", "kernels.mul_terms_capped", "kernels.add_scaled",
                 "polyring.MultiPoly.substitute", "polyring.MultiPoly.hessian_of_partial"]:
        assert name in tr.originals, name
    assert acceptance.ProcessPoolExecutor is pool  # restored after the install
    x, y = MultiPoly.variable(0, 2), MultiPoly.variable(1, 2)
    with tr.enabled():
        assert acceptance.ProcessPoolExecutor is not pool
        (x + 1) * y
        (x * x).substitute([x + y, y])
    assert acceptance.ProcessPoolExecutor is pool
    assert tr.stats["kernels.mul_terms"].calls >= 2
    assert tr.stats["kernels.mul_terms"].counts["term_products"] >= 2
    assert tr.stats["polyring.MultiPoly.substitute"].calls == 1


def test_a_traced_symbolic_pass_reads_nonzero_where_the_benchmark_requires():
    # the traced benchmark run fails when one of these metrics reads 0, so
    # a change that takes MultiPoly.substitute or lorentzian_witness off the
    # symbolic path fails here first
    tracer = _tracer_module()
    spec = importlib.util.spec_from_file_location("perfbench_workloads", TRACER.with_name("workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    modules = {layer: importlib.import_module(f"schurhr.{layer}") for layer in tracer.LAYERS}
    criteria = {cid: fn.__name__ for cid, fn in modules["acceptance"].CRITERIA}
    tr = tracer.Tracer()
    tr.install(modules)
    wl = workloads.Symbolic()
    wl.setup(1)
    checks = workloads.Checks()
    with tr.enabled():
        p = wl.run_pass(0, checks, quiet=tr.disabled)
    assert checks.attempted and not checks.failed, checks.messages
    trace = tr.to_json()
    trace["attributed_s"] = sum(st.self for st in tr.stats.values())
    metrics = tracer.metrics(trace, criteria, p.wall, p.wall)
    # trace.* measure the tracer against an untraced pass, not a span
    required = [name for name, _ in tracer.per_layer_spec()
                if not name.startswith("trace.")
                and not any(name.startswith(x) for x in wl.expected_zero)
                and tracer.present(name, trace, criteria)]
    for name in ["polyring.MultiPoly.substitute.calls", "analysis.lorentzian_witness.self_s",
                 "schur.schur_jt.calls", "schur.derived_all.calls"]:
        assert name in required, name
    assert [name for name in required if not metrics[name]] == []
