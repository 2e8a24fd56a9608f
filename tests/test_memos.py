"""Every memo in the package is bounded: a static scan plus one runtime check.

An ``lru_cache`` must set an integer ``maxsize``. An unbounded memo
(``cache``, a bare ``lru_cache`` or ``maxsize=None``) is allowed only on
a function whose key is a term count, which ``MAX_TERMS`` caps before
anything is cached.
"""

import ast
from pathlib import Path

from efrac import validate_certificate
from efrac.certificates import Empty, InequalityCertificate, _sylvester_table
from efrac.sylvester import MAX_TERMS

SRC = Path(__file__).resolve().parent.parent / "src" / "efrac"
MEMOS = {"lru_cache", "cache"}
KEYED_BY_TERM_COUNT = {"sylvester", "_sylvester_table"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_int(node):
    """An expression of int literals and arithmetic, such as ``1 << 16``."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    if isinstance(node, ast.UnaryOp):
        return _is_int(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_int(node.left) and _is_int(node.right)
    return False


def _has_int_maxsize(call):
    if _name(call.func) != "lru_cache":
        return False  # cache() takes no maxsize
    sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
    return len(sizes) == 1 and _is_int(sizes[0])


def unbounded_memos(tree):
    """(line, memoised function or None) for each memo without an int maxsize."""
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    for ref in ast.walk(tree):
        if _name(ref) not in MEMOS:
            continue
        site, bounded = ref, False
        parent = parents.get(ref)
        if isinstance(parent, ast.Call) and parent.func is ref:
            site, bounded = parent, _has_int_maxsize(parent)
        if bounded:
            continue
        # the function it wraps: decorated by the site, or passed to it
        owner = parents.get(site)
        if isinstance(owner, ast.FunctionDef) and site in owner.decorator_list:
            target = owner.name
        elif isinstance(owner, ast.Call) and owner.func is site and owner.args:
            target = _name(owner.args[0])
        elif site is not ref and site.args:
            target = _name(site.args[0])  # lru_cache(f)
        else:
            target = None
        yield site.lineno, target


def test_scan_sees_each_memo_form():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=1 << 16)\n"
        "def a(x): pass\n"
        "@lru_cache(64)\n"
        "def b(x): pass\n"
        "@lru_cache(maxsize=None)\n"
        "def c(x): pass\n"
        "@functools.cache\n"
        "def d(x): pass\n"
        "@lru_cache\n"
        "def e(x): pass\n"
        "f = lru_cache(maxsize=8)(a)\n"
        "g = lru_cache(maxsize=None)(b)\n"
        "h = lru_cache(c)\n"
        "i = cache\n"
    )
    found = sorted(unbounded_memos(ast.parse(source)))
    assert found == [(7, "c"), (9, "d"), (11, "e"), (14, "b"), (15, "c"), (16, None)]


def test_every_package_memo_is_bounded():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line}: {target}"
        for path in files
        for line, target in unbounded_memos(ast.parse(path.read_text(encoding="utf-8")))
        if target not in KEYED_BY_TERM_COUNT
    ]
    assert found == []


def test_over_long_forgeries_leave_the_validator_table_capped():
    for k in (MAX_TERMS + 1, 40):
        forged = InequalityCertificate((k + 1,) * k, Empty(), True)
        assert not validate_certificate(forged)
    assert _sylvester_table.cache_info().currsize <= MAX_TERMS + 1
