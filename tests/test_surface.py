"""The top-level API is exactly what the package's callers use.

``efrac.__all__`` is pinned, and every ``efrac.<name>`` or
``from efrac import ...`` found in the benchmark, the demos, the README's
Python blocks and the acceptance tests must resolve through it, so the
surface can neither regrow nor drop a name a caller needs unseen. The
search entry points and its report are pinned the same way, down to their
parameters and fields.
"""

import dataclasses
import importlib.util
import inspect
import re
from pathlib import Path

import efrac

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
    "DenominatorTuple",
    "EfracError",
    "MajorizationInstance",
    "MuirheadInstance",
    "OptimalityReport",
    "ProductDeficit",
    "PropositionCounterexample",
    "Split",
    "augment",
    "best_tuples",
    "brute_force_prop_search",
    "build_certificate",
    "check_hypotheses",
    "format_rational",
    "greedy_underapprox",
    "majorizes",
    "normalize_scale",
    "product",
    "quick_strict_check",
    "random_instance",
    "shortfall_identity_check",
    "sum_dominates",
    "sum_reciprocals",
    "sylvester",
    "symmetric_sum",
    "validate_certificate",
    "validate_tuple",
    "verify_theorem",
]

_ATTRIBUTE = re.compile(r"\befrac\.(\w+)")
_FROM_IMPORT = re.compile(r"^\s*from efrac import (\([^)]*\)|[^\n]+)", re.MULTILINE)


def caller_sources():
    paths = sorted((ROOT / "bench").glob("*.py"))
    paths += sorted((ROOT / "demos").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert blocks, "the README has no python block"
    sources["README.md"] = "\n".join(blocks)
    return sources


def names_used(source):
    """Top-level names a source reaches: attributes and from-imports."""
    names = set(_ATTRIBUTE.findall(source))
    for group in _FROM_IMPORT.findall(source):
        for item in group.strip("()").split(","):
            item = item.split("#", 1)[0].strip()
            if item:
                names.add(item.split(" as ", 1)[0].strip())
    return names


def is_submodule(name):
    return importlib.util.find_spec(f"efrac.{name}") is not None


def test_all_is_pinned():
    assert efrac.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(efrac, name) is not None, name


def test_callers_use_only_the_public_names():
    found = {}
    for where, source in caller_sources().items():
        for name in names_used(source):
            if name.startswith("__") or name in PUBLIC:
                continue
            # submodules such as efrac.cli are reached by their own path
            if not is_submodule(name):
                found.setdefault(where, set()).add(name)
    assert found == {}


def test_the_scan_sees_the_callers():
    # guards the regexes: a scan that matched nothing would pass vacuously
    seen = set().union(*map(names_used, caller_sources().values()))
    assert {"Split", "ProductDeficit", "best_tuples", "sylvester", "cli"} <= seen


def test_search_signatures_are_pinned():
    # a removed knob must not grow back unseen
    assert list(inspect.signature(efrac.best_tuples).parameters) == ["k", "target"]
    assert list(inspect.signature(efrac.verify_theorem).parameters) == ["k"]


def test_report_fields_are_pinned():
    # bench/selftest.py builds reports by these keywords
    fields = [f.name for f in dataclasses.fields(efrac.OptimalityReport)]
    assert fields == [
        "problem",
        "optima",
        "optimum_sum",
        "nodes_explored",
        "matches_sylvester",
    ]
