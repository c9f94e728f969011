"""No floating point in schurhr: a guard over the source of every module.

Every number the package computes is an int or a Fraction.  The test parses
``src/schurhr`` and fails on a float literal, a ``float(`` call, a ``math``
import other than an integer function, or a true division, outside the
three sites listed below.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "schurhr"
MATH_INTEGER = {"comb", "factorial", "prod", "lcm"}
# the only float literals: two probability draws of the acceptance suite,
# which compare a draw and never enter a computed number
RANDOM_DRAWS = {("acceptance.py", "rng.random() < 0.5"),
                ("acceptance.py", "rng.random() < 0.9")}
# the only true division: Fraction by Fraction in the Sturm remainder
FRACTION_DIVISION = ("realroots.py", "a.pop() / b[-1]")


def _floating_point(name, source):
    """(problems, allowed sites found) for the module ``name`` with this source."""
    tree = ast.parse(source)
    found, draws = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and (name, ast.unparse(node)) in RANDOM_DRAWS:
            found.append((name, ast.unparse(node)))
            draws.update(map(id, node.comparators))
    problems = []
    for node in ast.walk(tree):
        line = f"{name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            if id(node) not in draws:
                problems.append(f"{line}: literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            problems.append(f"{line}: float() call")
        elif isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "math" for a in node.names):
                problems.append(f"{line}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            bad = sorted({a.name for a in node.names} - MATH_INTEGER)
            if bad:
                problems.append(f"{line}: from math import {', '.join(bad)}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            if (name, ast.unparse(node)) == FRACTION_DIVISION:
                found.append(FRACTION_DIVISION)
            else:
                problems.append(f"{line}: true division {ast.unparse(node)}")
    return problems, found


def test_no_module_computes_in_floating_point():
    problems, found = [], []
    for path in sorted(SRC.glob("*.py")):
        p, f = _floating_point(path.name, path.read_text())
        problems += p
        found += f
    assert problems == []
    # every allowed site is still there, once: the lists above stay current
    assert sorted(found) == sorted(RANDOM_DRAWS | {FRACTION_DIVISION})


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = 1e3",
    "x = 2j",
    "if rng.random() < 0.5 and y < 0.25:\n    pass",
    "x = float(y)",
    "import math",
    "import math as m",
    "from math import comb, sqrt",
    "x = a / b",
    "x /= 2",
])
def test_the_guard_finds_floating_point(source):
    problems, _ = _floating_point("acceptance.py", source)
    assert len(problems) == 1, problems


def test_the_guard_allows_integer_code():
    source = "from math import comb, lcm\nx = a // b\nif rng.random() < 0.9:\n    pass"
    assert _floating_point("acceptance.py", source) == (
        [], [("acceptance.py", "rng.random() < 0.9")])
    # the one allowed division is allowed in its own module only
    assert _floating_point("realroots.py", "c = a.pop() / b[-1]") == ([], [FRACTION_DIVISION])
    assert len(_floating_point("schur.py", "c = a.pop() / b[-1]")[0]) == 1
