"""Recursive proof certificates for the Sylvester optimality inequality.

For any valid denominator tuple b (nondecreasing, terms at least 2,
reciprocal sum below 1) the reciprocal sum is at most that of the
Sylvester prefix of the same length, with equality exactly when b is
that prefix. :func:`build_certificate` produces a checkable proof object
for one tuple, mirroring the inductive argument:

* ``ProductDeficit``: the term product of b is smaller than the Sylvester
  product, so b's sum (an integer over that smaller product) cannot reach
  1 - 1/(Sylvester product). Strict inequality, one leaf, done.
* ``Split``: otherwise some suffix of b product-dominates the matching
  Sylvester suffix. Take ell, the largest index where that happens.
  Dividing the ell-suffix domination by the (strictly dominated) shorter
  suffixes yields a chain of prefix-product inequalities for the tail,
  which is the hypothesis set of the sum comparison in
  :mod:`efrac.majorization`; the tail sums then compare in b's disfavor,
  and the head b1..b(ell-1) is handled by recursion. Equality propagates
  only through all-equal tails and an equality head.
* ``Empty``: the zero-length tuple; both sums are 0.

The builder works in integers only: one backward pass over suffix
products finds ell and the deficit witness, and one forward pass over the
tail builds the chain and both tail sums as numerators over the running
products, compared by cross multiplication. :func:`quick_strict_check`
gives the product-deficit leaf on its own.

:func:`validate_certificate` is an independent re-checker, also in
integers. It shares no code with the builder: every product, the
maximality of ell, every chain pair, both sum comparisons, and the head
recursion are re-derived from the stored tuple and the validator's own
Sylvester table, with sums compared over common denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

from .errors import ChainViolated
from .rationals import DenominatorTuple, product, validate_tuple
from .sylvester import sylvester


@dataclass(frozen=True)
class Empty:
    """Certificate leaf for the zero-length tuple."""


@dataclass(frozen=True)
class ProductDeficit:
    """The tuple's term product falls short of the Sylvester product."""

    b_product: int
    a_product: int


@dataclass(frozen=True)
class Split:
    """Pivot at ell: dominated tail handled directly, head by recursion.

    ``chain`` holds (b-side, a-side) products of terms ell..j for each
    j from ell to the end; every b-side is at least the a-side.
    ``deficit_witness`` records the suffix products starting at ell + 1
    (b-side strictly below a-side), which makes the maximality of ell
    checkable without a search; it is None exactly when ell is the last
    index.
    """

    ell: int
    chain: tuple[tuple[int, int], ...]
    deficit_witness: Optional[tuple[int, int]]
    tail_equality: bool
    head: "InequalityCertificate"


@dataclass(frozen=True)
class InequalityCertificate:
    terms: tuple[int, ...]
    node: Union[Empty, ProductDeficit, Split]
    is_equality: bool


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def quick_strict_check(
    b: Union[DenominatorTuple, Sequence[int]]
) -> Optional[ProductDeficit]:
    """Return the product-deficit leaf when it applies, else None."""
    tup = validate_tuple(b)
    b_product = product(tup)
    a_product = sylvester(len(tup)).running_product
    if b_product < a_product:
        return ProductDeficit(b_product, a_product)
    return None


def build_certificate(
    b: Union[DenominatorTuple, Sequence[int]]
) -> InequalityCertificate:
    """Construct the recursive proof object for one valid tuple."""
    tup = validate_tuple(b)
    return _build(tup.terms)


@lru_cache(maxsize=None)
def _sylvester_prefix(k: int) -> tuple[tuple[int, ...], int]:
    """The builder's (terms, product) table, one entry per length."""
    prefix = sylvester(k)
    return prefix.terms, prefix.running_product


@lru_cache(maxsize=1 << 16)
def _build(terms: tuple[int, ...]) -> InequalityCertificate:
    k = len(terms)
    if k == 0:
        return InequalityCertificate((), Empty(), True)

    a_terms, a_product = _sylvester_prefix(k)
    b_product = math.prod(terms)
    if b_product < a_product:
        return InequalityCertificate(
            terms, ProductDeficit(b_product, a_product), False
        )

    # Backward pass over suffix products: ell is the first (largest) index
    # whose suffix dominates, and the suffix just after it is the witness.
    # The full product dominates, so the loop stops at ell = 1 at the latest.
    witness: Optional[tuple[int, int]] = None
    suffix_b = suffix_a = 1
    for ell in range(k, 0, -1):
        suffix_b *= terms[ell - 1]
        suffix_a *= a_terms[ell - 1]
        if suffix_b >= suffix_a:
            break
        witness = (suffix_b, suffix_a)

    # Forward pass over the tail: the chain of products of terms ell..j,
    # and both tail sums as numerators over those running products.
    chain = []
    run_b = run_a = 1
    sum_b = sum_a = 0
    for j in range(ell - 1, k):
        sum_b = sum_b * terms[j] + run_b
        sum_a = sum_a * a_terms[j] + run_a
        run_b *= terms[j]
        run_a *= a_terms[j]
        if run_b < run_a:
            raise ChainViolated(
                f"prefix product through position {j + 1} has b-side {run_b} "
                f"below a-side {run_a}; ell = {ell} was not chosen maximal"
            )
        chain.append((run_b, run_a))

    # The chain is prefix-product domination for the reciprocal tail, so
    # the tail sum of b cannot exceed the Sylvester tail sum, with equality
    # exactly for entrywise equal tails.
    lhs = sum_b * run_a
    rhs = sum_a * run_b
    if lhs > rhs:
        raise ChainViolated("tail sum exceeds the Sylvester tail sum")
    tail_equality = terms[ell - 1 :] == a_terms[ell - 1 :]
    if (lhs == rhs) != tail_equality:
        raise ChainViolated(
            "tail sums agree exactly when the tails are entrywise equal; "
            "the two checks disagreed"
        )

    head = _build(terms[: ell - 1])
    node = Split(ell, tuple(chain), witness, tail_equality, head)
    return InequalityCertificate(terms, node, tail_equality and head.is_equality)


# --- independent re-checker ------------------------------------------------
#
# Everything below re-derives the certificate's claims from the stored
# tuple with its own integer helpers (sums are integer numerators over
# common denominators) and shares no code with the builder, so a bug in
# the builder's route cannot hide here.


# Results are frozen, so every successful check can share one instance.
_VALID = ValidationResult(True)


def _sylvester_table(
    k: int,
) -> tuple[tuple[int, ...], list[int], list[int]]:
    """Sylvester terms a1..ak with their prefix products and sum numerators.

    ``prods[i]`` is a1 * ... * ai and ``nums[i]`` is the numerator of
    1/a1 + ... + 1/ai over ``prods[i]``, for i = 0..k. One table covers a
    whole certificate: every head is a prefix of its parent's tuple.
    """
    terms = []
    prods = [1]
    for _ in range(k):
        terms.append(prods[-1] + 1)
        prods.append(prods[-1] * terms[-1])
    nums = [_sum_numerator(terms[:i], prods[i]) for i in range(k + 1)]
    return tuple(terms), prods, nums


def _sum_numerator(values: Sequence[int], common: int) -> int:
    # common must be divisible by every value; callers pass the product.
    # A plain loop beats sum() over a generator on tuples this short.
    total = 0
    for v in values:
        total += common // v
    return total


def _compare_sums(num_b: int, pb: int, num_a: int, pa: int) -> int:
    """Sign of num_b/pb - num_a/pa, computed by cross multiplication."""
    lhs = num_b * pa
    rhs = num_a * pb
    return (lhs > rhs) - (lhs < rhs)


def validate_certificate(cert: InequalityCertificate) -> ValidationResult:
    """Re-derive every claim from the tuple alone; never raises.

    A failed check is reported as ``ValidationResult(False, reason)`` with
    a short structured reason string. A field of the wrong type, such as a
    ``None`` head, chain or term list, fails as ``malformed_certificate``.
    """
    try:
        return _validate(cert, None)
    except Exception as exc:
        return ValidationResult(
            False, f"malformed_certificate: {type(exc).__name__}: {exc}"
        )


def _validate(
    cert: InequalityCertificate,
    table: Optional[tuple[tuple[int, ...], list[int], list[int]]],
) -> ValidationResult:
    terms = tuple(cert.terms)
    k = len(terms)

    for i, t in enumerate(terms):
        if not isinstance(t, int) or t < 2:
            return ValidationResult(False, f"term_invalid: terms[{i}] = {t!r}")
        if i and terms[i - 1] > t:
            return ValidationResult(
                False, f"terms_not_sorted: terms[{i - 1}] > terms[{i}]"
            )
    pb = math.prod(terms)
    num_b = _sum_numerator(terms, pb)
    if num_b >= pb:
        return ValidationResult(False, "sum_not_below_one")

    # Heads are checked to be prefixes before recursing, so the top-level
    # table is long enough at every level.
    if table is None:
        table = _sylvester_table(k)
    a_terms, a_prods, a_nums = table
    pa = a_prods[k]
    node = cert.node

    if isinstance(node, Empty):
        if k != 0:
            return ValidationResult(False, "empty_node_on_nonempty_tuple")
        if cert.is_equality is not True:
            return ValidationResult(False, "empty_certificate_must_claim_equality")
        return _VALID

    if isinstance(node, ProductDeficit):
        if k == 0:
            return ValidationResult(False, "product_deficit_on_empty_tuple")
        if node.b_product != pb or node.a_product != pa:
            return ValidationResult(
                False,
                f"recorded_products_mismatch: stored ({node.b_product}, "
                f"{node.a_product}), recomputed ({pb}, {pa})",
            )
        if pb >= pa:
            return ValidationResult(
                False, f"no_deficit: product {pb} is not below {pa}"
            )
        if cert.is_equality:
            return ValidationResult(False, "deficit_certificate_claims_equality")
        if _compare_sums(num_b, pb, a_nums[k], pa) >= 0:
            return ValidationResult(False, "final_inequality_not_strict")
        return _VALID

    if isinstance(node, Split):
        ell = node.ell
        if not isinstance(ell, int) or not 1 <= ell <= k:
            return ValidationResult(False, f"ell_out_of_range: {ell!r}")

        # suffix products of both sides for positions j .. k (index k + 1
        # is the empty suffix)
        suffix_b = [1] * (k + 2)
        suffix_a = [1] * (k + 2)
        for j in range(k, 0, -1):
            suffix_b[j] = terms[j - 1] * suffix_b[j + 1]
            suffix_a[j] = a_terms[j - 1] * suffix_a[j + 1]

        if suffix_b[ell] < suffix_a[ell]:
            return ValidationResult(
                False,
                f"suffix_not_dominating: at j = {ell}, {suffix_b[ell]} < "
                f"{suffix_a[ell]}",
            )
        for j in range(ell + 1, k + 1):
            if suffix_b[j] >= suffix_a[j]:
                return ValidationResult(
                    False,
                    f"ell_not_maximal: suffix at j = {j} dominates "
                    f"({suffix_b[j]} >= {suffix_a[j]})",
                )
        if ell == k:
            if node.deficit_witness is not None:
                return ValidationResult(
                    False, "deficit_witness_present_for_full_split"
                )
        else:
            expected = (suffix_b[ell + 1], suffix_a[ell + 1])
            if node.deficit_witness != expected:
                return ValidationResult(
                    False,
                    f"deficit_witness_mismatch: stored "
                    f"{node.deficit_witness}, recomputed {expected}",
                )

        if len(node.chain) != k - ell + 1:
            return ValidationResult(
                False,
                f"chain_length_mismatch: {len(node.chain)} pairs for "
                f"positions {ell}..{k}",
            )
        run_b = 1
        run_a = 1
        for idx, j in enumerate(range(ell, k + 1)):
            run_b *= terms[j - 1]
            run_a *= a_terms[j - 1]
            if node.chain[idx] != (run_b, run_a):
                return ValidationResult(
                    False,
                    f"chain_pair_mismatch: at j = {j}, stored "
                    f"{node.chain[idx]}, recomputed ({run_b}, {run_a})",
                )
            if run_b < run_a:
                return ValidationResult(
                    False, f"chain_inequality_violated: at j = {j}"
                )

        tail_b = terms[ell - 1 :]
        tail_a = a_terms[ell - 1 : k]
        if node.tail_equality != (tail_b == tail_a):
            return ValidationResult(False, "tail_equality_flag_wrong")
        tail_pb = suffix_b[ell]
        tail_pa = suffix_a[ell]
        tail_sign = _compare_sums(
            _sum_numerator(tail_b, tail_pb),
            tail_pb,
            _sum_numerator(tail_a, tail_pa),
            tail_pa,
        )
        if tail_sign > 0:
            return ValidationResult(False, "tail_sum_comparison_violated")
        if (tail_sign == 0) != node.tail_equality:
            return ValidationResult(False, "tail_strictness_wrong")

        head = node.head
        if tuple(head.terms) != terms[: ell - 1]:
            return ValidationResult(
                False,
                f"head_tuple_mismatch: head covers {head.terms}, expected "
                f"{terms[: ell - 1]}",
            )
        head_result = _validate(head, table)
        if not head_result.ok:
            return ValidationResult(False, f"head: {head_result.reason}")

        if cert.is_equality != (node.tail_equality and head.is_equality):
            return ValidationResult(False, "equality_flag_inconsistent")
        final_sign = _compare_sums(num_b, pb, a_nums[k], pa)
        if final_sign > 0:
            return ValidationResult(False, "final_inequality_violated")
        if (final_sign == 0) != cert.is_equality:
            return ValidationResult(False, "final_strictness_wrong")
        return _VALID

    return ValidationResult(False, f"unknown_node_kind: {type(node).__name__}")
