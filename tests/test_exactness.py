"""No floats, anywhere: a static scan of the package source.

Every value the package computes is an integer or a Fraction. The scan
rejects what would bring a float in: a float literal, the name ``float``,
true division with ``/``, and any ``math`` function outside the exact
integer ones.

A second scan holds the certificate validator to multiplication: neither
``efrac.certificates._validate`` nor any module function it calls, at any
depth, may use ``//``, ``%`` or ``divmod``.
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


def divisions(tree):
    """(line, description) for each floor division, modulo or divmod."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, (ast.FloorDiv, ast.Mod)
        ):
            symbol = "%" if isinstance(node.op, ast.Mod) else "//"
            yield node.lineno, f"operator {symbol}"
        elif isinstance(node, ast.Name) and node.id == "divmod":
            yield node.lineno, "name divmod"


def reached_functions(tree, root):
    """The module function ``root`` and every module function it calls."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = {}, [root]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached[name] = defs[name]
            todo += [
                node.func.id
                for node in ast.walk(defs[name])
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in defs
            ]
    return reached.values()


def validator_divisions(tree):
    for function in reached_functions(tree, "_validate"):
        for line, what in divisions(function):
            yield line, f"{function.name}: {what}"


def test_division_scan_sees_each_construct_in_a_callee():
    source = (
        "def _validate(a):\n"
        "    return _helper(a) + a * 2\n"
        "def _helper(a):\n"
        "    a //= 2\n"
        "    return a % 3 + divmod(a, 5)[0] + _validate(a // 7)\n"
        "def unrelated(a):\n"
        "    return a // 2\n"
    )
    found = sorted(validator_divisions(ast.parse(source)))
    assert found == [
        (4, "_helper: operator //"),
        (5, "_helper: name divmod"),
        (5, "_helper: operator %"),
        (5, "_helper: operator //"),
    ]


def test_certificate_validator_does_not_divide():
    source = (SRC / "certificates.py").read_text(encoding="utf-8")
    assert list(validator_divisions(ast.parse(source))) == []
