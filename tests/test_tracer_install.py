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
