"""No float enters the package: every decision is exact integer or
rational arithmetic.  A float literal, the name `float`, or the
logarithm, square root and exponential of `math` fails this test."""

import ast
from pathlib import Path

import large_atlas

FLOAT_FUNCTIONS = {"log", "log2", "log10", "sqrt", "exp"}


def _modules():
    return sorted(Path(large_atlas.__file__).parent.rglob("*.py"))


def _floats(tree):
    """(line, what) for each float the tree holds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in FLOAT_FUNCTIONS:
                    yield node.lineno, f"from math import {alias.name}"
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_FUNCTIONS
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, f"math.{node.attr}"


def test_no_module_of_the_package_uses_a_float():
    modules = _modules()
    assert {"orders.py", "bounds.py", "sweep.py"} <= {p.name for p in modules}
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}: {what}" for line, what in _floats(tree)]
    assert found == []


def test_the_guard_sees_each_kind_of_float():
    source = ("x = 0.5\ny = float(3)\nfrom math import log2, gcd\n"
              "import math\nz = math.sqrt(2)\nw = 1j\n")
    whats = [what for _, what in _floats(ast.parse(source))]
    assert sorted(whats) == sorted(["float literal 0.5", "the name float",
                                    "from math import log2", "math.sqrt",
                                    "float literal 1j"])
