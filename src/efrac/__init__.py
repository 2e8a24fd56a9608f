"""Exact arithmetic for best k-term unit-fraction underapproximations.

The package revolves around one fact: among all nondecreasing integer
tuples b1 <= ... <= bk (terms at least 2) whose reciprocals sum to less
than 1, the Sylvester prefix 2, 3, 7, 43, ... attains the unique maximum
sum, namely 1 minus the reciprocal of the running product. Everything is
computed with exact rationals; no floating point is used anywhere.

Capabilities: validated denominator tuples and their aggregates
(:mod:`efrac.rationals`), the Sylvester sequence and its shortfall
identity (:mod:`efrac.sylvester`), prefix-product majorization with an
exact Muirhead checker (:mod:`efrac.majorization`), greedy and
exhaustive optimality search (:mod:`efrac.search`), recursive proof
certificates with an independent validator (:mod:`efrac.certificates`),
and the ``ef`` command line (:mod:`efrac.cli`).

The top level exports what the command line, the demos and the benchmark
use. The exception classes live in :mod:`efrac.errors`; only their base
:class:`EfracError` is exported here.
"""

from .certificates import (
    ProductDeficit,
    Split,
    build_certificate,
    quick_strict_check,
    validate_certificate,
)
from .errors import EfracError
from .majorization import (
    MajorizationInstance,
    MuirheadInstance,
    PropositionCounterexample,
    augment,
    brute_force_prop_search,
    check_hypotheses,
    majorizes,
    normalize_scale,
    random_instance,
    sum_dominates,
    symmetric_sum,
)
from .rationals import (
    DenominatorTuple,
    format_rational,
    product,
    sum_reciprocals,
    validate_tuple,
)
from .search import OptimalityReport, best_tuples, greedy_underapprox, verify_theorem
from .sylvester import shortfall_identity_check, sylvester

__version__ = "0.1.0"

__all__ = [
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
