"""No floats, anywhere: a static scan of the package source.

Every value the package computes is an integer or a Fraction. The scan
rejects what would bring a float in: a float literal, the name ``float``,
true division with ``/``, and any ``math`` function outside the exact
integer ones.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "efrac"
EXACT_MATH = {"gcd", "isqrt", "prod", "factorial"}


def inexact_nodes(tree):
    """(line, description) for each construct that can produce a float."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "name float"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.Div
        ):
            yield node.lineno, "operator /"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in EXACT_MATH:
                    yield node.lineno, f"math.{alias.name}"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in EXACT_MATH
        ):
            yield node.lineno, f"math.{node.attr}"


def test_scan_sees_each_inexact_construct():
    source = (
        "import math\n"
        "from math import gcd, sqrt\n"
        "x = 0.5\n"
        "y = float(1)\n"
        "z = 1 / 2\n"
        "z /= 2\n"
        "w = math.log(2) + math.isqrt(4)\n"
    )
    found = sorted(inexact_nodes(ast.parse(source)))
    assert found == [
        (2, "math.sqrt"),
        (3, "literal 0.5"),
        (4, "name float"),
        (5, "operator /"),
        (6, "operator /"),
        (7, "math.log"),
    ]


def test_package_source_has_no_float():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line}: {what}"
        for path in files
        for line, what in inexact_nodes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
