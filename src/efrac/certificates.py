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

The builder only constructs, in integers: one backward pass over suffix
products finds ell and the deficit witness, and one forward pass over the
tail builds the chain. It checks none of the claims it records; every one
of them is checked only by :func:`validate_certificate`.
:func:`quick_strict_check` gives the product-deficit leaf on its own.

The builder memoises heads, not whole tuples. Tuples with a common prefix
often split onto one head, so a sweep over many tuples builds that head
once and shares it as one object, for as long as the memo keeps it (up to
65,536 heads). A top-level tuple is certified once, so a memo entry for it
would never be read again: ``build_certificate`` builds that level outside
the memo, and only the head b1..b(ell-1) goes through it, at every level.

:func:`validate_certificate` is an independent re-checker, also in
integers, that shares no code with the builder. It walks the head spine in
one loop. Every head must equal a prefix of the top tuple, so the terms are
checked once (a head need only hold ints) and the b-side sums built once,
by one forward prefix-sum recurrence: with P_i = b1 * ... * bi, the sum
1/b1 + ... + 1/bi is N_i / P_i for N_i = N_(i-1) * bi + P_(i-1). A level of
length k has the sum N_k / P_k, and its tail from ell the sum
(N_k - N_(ell-1) * S) / P_k, where S is the tail's product, so the
validator divides nothing. Each level re-derives its products, the
maximality of ell, every chain pair and both sum comparisons (numerators
cross multiplied) against the validator's own Sylvester table for its
length, cached per k: terms, suffix products and suffix sum numerators,
O(k) integers. A certificate longer than ``MAX_TERMS`` fails before any table
is built: the builder never makes one, and its table would take hours.
The three checks a Split makes after its head wait on a stack and run
innermost first, so the order of failures and their ``head: `` prefixes
are those of the recursion the loop replaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

from .rationals import DenominatorTuple, product, validate_tuple
from .sylvester import MAX_TERMS, sylvester


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


def _build(terms: tuple[int, ...]) -> InequalityCertificate:
    k = len(terms)
    if k == 0:
        return InequalityCertificate((), Empty(), True)

    prefix = sylvester(k)
    a_terms, a_product = prefix.terms, prefix.running_product
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

    # Forward pass over the tail: the chain of products of terms ell..j.
    chain = []
    run_b = run_a = 1
    for j in range(ell - 1, k):
        run_b *= terms[j]
        run_a *= a_terms[j]
        chain.append((run_b, run_a))
    tail_equality = terms[ell - 1 :] == a_terms[ell - 1 :]

    head = _head(terms[: ell - 1])
    node = Split(ell, tuple(chain), witness, tail_equality, head)
    return InequalityCertificate(terms, node, tail_equality and head.is_equality)


# Only heads go through the memo (see the module docstring).
_head = lru_cache(maxsize=1 << 16)(_build)


# --- independent re-checker ------------------------------------------------
# Nothing below is shared with the builder, so its bugs cannot hide here.


# Results are frozen, so every successful check can share one instance.
_VALID = ValidationResult(True)


@lru_cache(maxsize=None)
def _sylvester_table(k: int) -> tuple[tuple[int, ...], ...]:
    """Terms a1..ak; for j = 1..k+1, aj * ... * ak and the numerator of
    1/aj + ... + 1/ak over it (index 0 unused), by one backward recurrence."""
    terms, prod = [], 1
    for _ in range(k):
        terms.append(prod + 1)
        prod *= prod + 1
    suffix, nums = [1] * (k + 2), [0] * (k + 2)
    for j in range(k, 0, -1):
        a = terms[j - 1]
        nums[j] = nums[j + 1] * a + suffix[j + 1]
        suffix[j] = a * suffix[j + 1]
    return tuple(terms), tuple(suffix), tuple(nums)


def validate_certificate(cert: InequalityCertificate) -> ValidationResult:
    """Re-derive every claim from the tuple alone; never raises.

    A failed check is reported as ``ValidationResult(False, reason)`` with
    a short structured reason string, prefixed by ``head: `` once per
    Split above the level that failed. A field of the wrong type, such as
    a ``None`` head, chain or term list, fails as ``malformed_certificate``.
    """
    try:
        depth, reason = _validate(cert)
    except Exception as exc:
        return ValidationResult(
            False, f"malformed_certificate: {type(exc).__name__}: {exc}"
        )
    if reason is None:
        return _VALID
    return ValidationResult(False, "head: " * depth + reason)


def _validate(cert: InequalityCertificate) -> tuple[int, Optional[str]]:
    """One loop down the head spine (see the module docstring); returns the
    failing level's depth (0 for ``cert``) and reason, or (0, None)."""
    terms = tuple(cert.terms)
    k = len(terms)
    if k > MAX_TERMS:
        return 0, f"too_many_terms: {k} terms but the cap is {MAX_TERMS}"
    # prods[i] is b1 * ... * bi, multiplied as math.prod does, and nums[i]
    # the numerator of 1/b1 + ... + 1/bi over it
    prods, nums = [1], [0]
    for i, t in enumerate(terms):
        if not isinstance(t, int) or t < 2:
            return 0, f"term_invalid: terms[{i}] = {t!r}"
        if i and terms[i - 1] > t:
            return 0, f"terms_not_sorted: terms[{i - 1}] > terms[{i}]"
        nums.append(nums[-1] * t + prods[-1])
        prods.append(prods[-1] * t)
    pending = []  # one entry per Split above the current level
    level = cert
    while True:
        depth = len(pending)
        pb, num_b = prods[k], nums[k]
        if num_b >= pb:
            return depth, "sum_not_below_one"
        a_terms, a_suffix, a_nums = _sylvester_table(k)
        pa = a_suffix[1]
        node = level.node
        if not isinstance(node, Split):
            break

        ell = node.ell
        if not isinstance(ell, int) or not 1 <= ell <= k:
            return depth, f"ell_out_of_range: {ell!r}"
        suffix_b = 1  # terms j..k, for j = k down to ell
        dominating = None  # the smallest j > ell whose suffix dominates
        for j in range(k, ell, -1):
            suffix_b = terms[j - 1] * suffix_b
            if suffix_b >= a_suffix[j]:
                dominating = (j, suffix_b)
        witness_b = suffix_b
        suffix_b = terms[ell - 1] * suffix_b
        if suffix_b < a_suffix[ell]:
            return depth, (
                f"suffix_not_dominating: at j = {ell}, {suffix_b} < "
                f"{a_suffix[ell]}"
            )
        if dominating is not None:
            j, dominating_b = dominating
            return depth, (
                f"ell_not_maximal: suffix at j = {j} dominates "
                f"({dominating_b} >= {a_suffix[j]})"
            )
        witness = node.deficit_witness
        if ell == k:
            if witness is not None:
                return depth, "deficit_witness_present_for_full_split"
        elif witness != (witness_b, a_suffix[ell + 1]):
            return depth, (
                f"deficit_witness_mismatch: stored {witness}, "
                f"recomputed {(witness_b, a_suffix[ell + 1])}"
            )

        chain = node.chain
        if len(chain) != k - ell + 1:
            return depth, (
                f"chain_length_mismatch: {len(chain)} pairs for "
                f"positions {ell}..{k}"
            )
        run_b = run_a = 1
        for j, pair in enumerate(chain, ell):
            run_b *= terms[j - 1]
            run_a *= a_terms[j - 1]
            if pair != (run_b, run_a):
                return depth, (
                    f"chain_pair_mismatch: at j = {j}, stored "
                    f"{pair}, recomputed ({run_b}, {run_a})"
                )
            if run_b < run_a:
                return depth, f"chain_inequality_violated: at j = {j}"
        if node.tail_equality != (terms[ell - 1 : k] == a_terms[ell - 1 :]):
            return depth, "tail_equality_flag_wrong"
        # b's tail sum is (num_b - nums[ell-1]*suffix_b) / pb; cross multiplied
        # with the Sylvester tail's a_nums[ell] / a_suffix[ell]
        lhs = (num_b - nums[ell - 1] * suffix_b) * a_suffix[ell]
        rhs = a_nums[ell] * pb
        if lhs > rhs:
            return depth, "tail_sum_comparison_violated"
        if (lhs == rhs) != node.tail_equality:
            return depth, "tail_strictness_wrong"

        head = node.head
        head_terms = tuple(head.terms)
        if head_terms != terms[: ell - 1]:
            return depth, (
                f"head_tuple_mismatch: head covers {head.terms}, expected "
                f"{terms[: ell - 1]}"
            )
        # equal by value to checked ints, so only the type is left to check
        for i, t in enumerate(head_terms):
            if not isinstance(t, int):
                return depth + 1, f"term_invalid: terms[{i}] = {t!r}"
        pending.append((level, node, head, num_b, pb, a_nums[1], pa))
        level = head
        k = ell - 1

    # the leaf at the bottom of the spine
    if isinstance(node, Empty):
        if k != 0:
            return depth, "empty_node_on_nonempty_tuple"
        if level.is_equality is not True:
            return depth, "empty_certificate_must_claim_equality"
    elif isinstance(node, ProductDeficit):
        if k == 0:
            return depth, "product_deficit_on_empty_tuple"
        if node.b_product != pb or node.a_product != pa:
            return depth, (
                f"recorded_products_mismatch: stored ({node.b_product}, "
                f"{node.a_product}), recomputed ({pb}, {pa})"
            )
        if pb >= pa:
            return depth, f"no_deficit: product {pb} is not below {pa}"
        if level.is_equality:
            return depth, "deficit_certificate_claims_equality"
        if num_b * pa >= a_nums[1] * pb:
            return depth, "final_inequality_not_strict"
    else:
        return depth, f"unknown_node_kind: {type(node).__name__}"

    # the checks each Split makes after its head, innermost first
    while pending:
        level, node, head, num_b, pb, num_a, pa = pending.pop()
        depth = len(pending)
        if level.is_equality != (node.tail_equality and head.is_equality):
            return depth, "equality_flag_inconsistent"
        lhs, rhs = num_b * pa, num_a * pb
        if lhs > rhs:
            return depth, "final_inequality_violated"
        if (lhs == rhs) != level.is_equality:
            return depth, "final_strictness_wrong"
    return 0, None
