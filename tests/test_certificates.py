"""Certificate construction and the independent re-checker.

Both sides work in integers, and they stay independent because they share
no code: the builder makes one backward pass over suffix products and one
forward pass over the tail, while the validator re-derives every claim from
its own Sylvester table and its own prefix-sum recurrence.
``quick_strict_check`` and the test-local ``largest_ell`` and
``chain_from_ell`` serve as an oracle for the builder's nodes. Tampering
tests flip single fields and expect the validator to name the broken claim;
the test-local ``reference_validate``, the recursive form of the
validator's spine walk, is the oracle for the reason it names.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from efrac import (
    ProductDeficit,
    Split,
    build_certificate,
    product,
    quick_strict_check,
    sum_reciprocals,
    sylvester,
    validate_certificate,
    validate_tuple,
)
from efrac.certificates import Empty, InequalityCertificate, ValidationResult, _head
from efrac.errors import InvalidTuple, TermNotInteger
from efrac.sylvester import MAX_TERMS
from tests.conftest import valid_tuples


def largest_ell(b):
    """Largest index j whose suffix product dominates the Sylvester one.

    Requires the full product to dominate, so that j = 1 always qualifies
    and the answer exists. A tuple with a product deficit is refused even
    when some shorter suffix happens to dominate: the split construction
    does not apply to it, the product-deficit route does.
    """
    tup = validate_tuple(b)
    k = len(tup)
    if k == 0:
        raise ValueError("the split index is undefined for the empty tuple")
    prefix = sylvester(k)
    if product(tup) < prefix.running_product:
        raise ValueError("product deficit: use the product-deficit route instead")
    suffix_b = 1
    suffix_a = 1
    for j in range(k, 0, -1):
        suffix_b *= tup[j - 1]
        suffix_a *= prefix.terms[j - 1]
        if suffix_b >= suffix_a:
            return j
    raise AssertionError("unreachable: the full product dominates at j = 1")


def chain_from_ell(b, ell):
    """Products of terms ell..j on both sides, for j = ell .. k.

    With ell chosen by :func:`largest_ell` every pair satisfies
    b-side >= a-side; a violated pair means ell was not chosen maximal,
    which is reported as a :class:`ValueError`.
    """
    tup = validate_tuple(b)
    k = len(tup)
    if not 1 <= ell <= k:
        raise ValueError(f"ell must be in 1..{k}, got {ell}")
    a_terms = sylvester(k).terms
    pairs = []
    run_b = 1
    run_a = 1
    for j in range(ell, k + 1):
        run_b *= tup[j - 1]
        run_a *= a_terms[j - 1]
        if run_b < run_a:
            raise ValueError(f"b-side {run_b} below a-side {run_a} at {j}")
        pairs.append((run_b, run_a))
    return tuple(pairs)


class TestQuickStrictCheck:
    def test_deficit_found(self):
        node = quick_strict_check((2, 3, 11, 14))
        assert node == ProductDeficit(924, 1806)

    def test_another_deficit(self):
        assert quick_strict_check((2, 4, 5, 45)) == ProductDeficit(1800, 1806)

    def test_equal_product_is_not_a_deficit(self):
        assert quick_strict_check((2, 3, 7, 43)) is None

    def test_rejects_invalid_tuples(self):
        with pytest.raises(InvalidTuple):
            quick_strict_check((2, 2))


class TestLargestEll:
    def test_split_in_the_middle(self):
        assert largest_ell((2, 3, 9, 42)) == 3

    def test_sequence_prefix_splits_at_the_end(self):
        assert largest_ell((2, 3, 7, 43)) == 4

    def test_tie_at_last_position(self):
        assert largest_ell((2, 3, 8, 43)) == 4

    def test_deficit_tuples_are_refused(self):
        with pytest.raises(ValueError, match="product deficit"):
            largest_ell((2, 4, 5, 45))


class TestChainFromEll:
    def test_two_pair_chain(self):
        assert chain_from_ell((2, 3, 9, 42), 3) == ((9, 7), (378, 301))

    def test_single_equal_pair(self):
        assert chain_from_ell((2, 3, 7, 43), 4) == ((43, 43),)

    def test_tie_selection_variant(self):
        assert chain_from_ell((2, 3, 8, 43), 4) == ((43, 43),)

    def test_wrong_ell_with_a_short_suffix_is_reported(self):
        # product 550 < 1806, so no ell is admissible; forcing one makes
        # the run b[2]*b[3]*b[4] = 275 fall below a-side 903
        with pytest.raises(ValueError, match="below a-side"):
            chain_from_ell((2, 5, 5, 11), 2)

    def test_ell_out_of_range(self):
        with pytest.raises(ValueError):
            chain_from_ell((2, 3, 9, 42), 0)
        with pytest.raises(ValueError):
            chain_from_ell((2, 3, 9, 42), 5)


def assert_matches_reference(terms):
    """The builder's node agrees with the reference functions."""
    node = build_certificate(terms).node
    deficit = quick_strict_check(terms)
    if deficit is not None:
        assert node == deficit, terms
        return
    ell = largest_ell(terms)
    a_terms = sylvester(len(terms)).terms
    assert isinstance(node, Split), terms
    assert node.ell == ell, terms
    assert node.chain == chain_from_ell(terms, ell), terms
    if ell == len(terms):
        assert node.deficit_witness is None, terms
    else:
        witness = (product(terms[ell:]), product(a_terms[ell:]))
        assert node.deficit_witness == witness, terms
    assert node.tail_equality == (terms[ell - 1 :] == a_terms[ell - 1 :]), terms


class TestBuilderAgainstReference:
    @given(valid_tuples())
    @settings(max_examples=400)
    def test_random_tuples(self, terms):
        assert_matches_reference(terms)

    def test_every_tuple_up_to_three_terms(self):
        checked = 0
        for k in range(1, 4):
            for terms in combinations_with_replacement(range(2, 61), k):
                p = product(terms)
                if sum(p // t for t in terms) >= p:
                    continue
                assert_matches_reference(terms)
                checked += 1
        assert checked == 59 + 1769 + 35925


class TestBuildCertificate:
    def test_equality_on_the_sequence_prefix(self):
        cert = build_certificate((2, 3, 7, 43))
        assert cert.is_equality
        assert isinstance(cert.node, Split)
        assert cert.node.ell == 4
        assert cert.node.tail_equality
        assert cert.node.deficit_witness is None
        assert cert.node.head.is_equality

    def test_split_with_strict_tail(self):
        cert = build_certificate((2, 3, 9, 42))
        assert not cert.is_equality
        node = cert.node
        assert isinstance(node, Split)
        assert node.ell == 3
        assert node.chain == ((9, 7), (378, 301))
        assert node.deficit_witness == (42, 43)
        assert not node.tail_equality
        assert node.head.terms == (2, 3)
        assert node.head.is_equality

    def test_product_deficit_leaf(self):
        cert = build_certificate((2, 3, 11, 14))
        assert cert.node == ProductDeficit(924, 1806)
        assert not cert.is_equality

    def test_empty_tuple(self):
        cert = build_certificate(())
        assert cert.node == Empty()
        assert cert.is_equality

    def test_single_term(self):
        assert build_certificate((2,)).is_equality
        assert not build_certificate((3,)).is_equality

    def test_rejects_invalid_input(self):
        with pytest.raises(InvalidTuple):
            build_certificate((3, 2))
        with pytest.raises(InvalidTuple):
            build_certificate((2, 2))

    @given(valid_tuples())
    @settings(max_examples=400)
    def test_equality_flag_means_sequence_prefix(self, terms):
        cert = build_certificate(terms)
        assert cert.is_equality == (terms == sylvester(len(terms)).terms)

    @given(valid_tuples())
    @settings(max_examples=400)
    def test_inequality_always_holds(self, terms):
        prefix = sylvester(len(terms))
        bound = 1 - Fraction(1, prefix.running_product)
        total = sum_reciprocals(terms)
        assert total <= bound
        assert (total == bound) == build_certificate(terms).is_equality


def spine_heads(cert):
    """The terms of every head below the top level of a certificate."""
    while isinstance(cert.node, Split):
        cert = cert.node.head
        yield cert.terms


class TestHeadMemo:
    def test_memo_holds_the_heads_and_no_top_level_tuple(self):
        _head.cache_clear()
        heads, tops = set(), set()
        for k in range(3):
            for terms in combinations_with_replacement(range(2, 61), k):
                if sum_reciprocals(terms) < 1:
                    heads.update(spine_heads(build_certificate(terms)))
                    tops.add(terms)
        assert tops - heads
        info = _head.cache_info()
        assert info.currsize == len(heads)
        for terms in heads:
            _head(terms)
        after = _head.cache_info()
        assert (after.hits, after.misses) == (info.hits + len(heads), info.misses)

    def test_tuples_with_one_head_share_it(self):
        first = build_certificate((2, 3, 7, 43))
        second = build_certificate((2, 3, 7, 44))
        assert first.node.head.terms == (2, 3, 7)
        assert first.node.head is second.node.head

    @given(valid_tuples())
    @settings(max_examples=200)
    def test_cold_build_equals_warm(self, terms):
        build_certificate(terms)
        warm = build_certificate(terms)
        _head.cache_clear()
        assert build_certificate(terms) == warm


class TestValidateCertificate:
    @pytest.mark.parametrize("k", [MAX_TERMS + 1, 40])
    def test_over_long_forgery_fails_before_any_table(self, k):
        # no builder makes a certificate this long; a table for it would
        # take seconds at k = 23 and hours at k = 40
        forged = InequalityCertificate((k + 1,) * k, Empty(), True)
        start = time.perf_counter()
        result = validate_certificate(forged)
        assert time.perf_counter() - start < 0.5
        assert result.reason == f"too_many_terms: {k} terms but the cap is {MAX_TERMS}"

    def test_round_trip_on_pinned_tuples(self):
        for terms in ((), (2,), (5,), (2, 3, 7, 43), (2, 3, 9, 42), (2, 3, 11, 14)):
            result = validate_certificate(build_certificate(terms))
            assert result.ok, result.reason

    @given(valid_tuples())
    @settings(max_examples=400)
    def test_round_trip_on_random_tuples(self, terms):
        result = validate_certificate(build_certificate(terms))
        assert result.ok, result.reason

    def test_lowered_ell_is_caught(self):
        cert = build_certificate((2, 3, 9, 42))
        bad = replace(cert, node=replace(cert.node, ell=2))
        result = validate_certificate(bad)
        assert not result.ok
        assert "ell_not_maximal" in result.reason

    def test_tampered_chain_is_caught(self):
        cert = build_certificate((2, 3, 9, 42))
        bad_chain = ((9, 7), (378, 300))
        bad = replace(cert, node=replace(cert.node, chain=bad_chain))
        result = validate_certificate(bad)
        assert not result.ok
        assert "chain_pair_mismatch" in result.reason

    def test_tampered_witness_is_caught(self):
        cert = build_certificate((2, 3, 9, 42))
        bad = replace(cert, node=replace(cert.node, deficit_witness=(43, 43)))
        result = validate_certificate(bad)
        assert not result.ok
        assert "deficit_witness_mismatch" in result.reason

    def test_flipped_equality_flag_is_caught(self):
        cert = build_certificate((2, 3, 7, 43))
        bad = replace(cert, is_equality=False)
        result = validate_certificate(bad)
        assert not result.ok
        assert "equality_flag_inconsistent" in result.reason

    def test_flipped_tail_equality_is_caught(self):
        cert = build_certificate((2, 3, 9, 42))
        bad = replace(cert, node=replace(cert.node, tail_equality=True))
        result = validate_certificate(bad)
        assert not result.ok
        assert "tail_equality_flag_wrong" in result.reason

    def test_tampered_products_are_caught(self):
        cert = build_certificate((2, 3, 11, 14))
        bad = replace(cert, node=ProductDeficit(924, 1807))
        result = validate_certificate(bad)
        assert not result.ok
        assert "recorded_products_mismatch" in result.reason

    def test_fake_deficit_is_caught(self):
        # claim a deficit for a tuple whose product dominates
        good = build_certificate((2, 3, 11, 14))
        bad = replace(good, terms=(2, 3, 7, 43), node=ProductDeficit(1806, 1806))
        result = validate_certificate(bad)
        assert not result.ok
        assert "no_deficit" in result.reason

    def test_unsorted_terms_are_caught(self):
        cert = build_certificate((2, 3, 11, 14))
        bad = replace(cert, terms=(3, 2, 11, 14))
        result = validate_certificate(bad)
        assert not result.ok
        assert "terms_not_sorted" in result.reason

    def test_wrong_head_is_caught(self):
        cert = build_certificate((2, 3, 9, 42))
        wrong_head = build_certificate((2, 4))
        bad = replace(cert, node=replace(cert.node, head=wrong_head))
        result = validate_certificate(bad)
        assert not result.ok
        assert "head_tuple_mismatch" in result.reason

    def test_raised_ell_is_not_dominating(self):
        cert = build_certificate((2, 3, 9, 42))
        bad = replace(cert, node=replace(cert.node, ell=4))
        result = validate_certificate(bad)
        assert result.reason == "suffix_not_dominating: at j = 4, 42 < 43"

    def test_tampered_head_two_levels_down(self):
        cert = build_certificate((2, 3, 9, 42))
        head = cert.node.head
        assert head.terms == (2, 3) and head.node.head.terms == (2,)
        bad_inner = replace(head.node.head, is_equality=False)
        bad_head = replace(head, node=replace(head.node, head=bad_inner))
        bad = replace(cert, node=replace(cert.node, head=bad_head))
        result = validate_certificate(bad)
        assert result.reason == "head: head: equality_flag_inconsistent"

    def test_empty_node_on_nonempty_tuple_is_caught(self):
        bad = replace(build_certificate(()), terms=(2,))
        result = validate_certificate(bad)
        assert not result.ok
        assert "empty_node_on_nonempty_tuple" in result.reason

    @pytest.mark.parametrize("field", ["head", "chain", "terms"])
    def test_missing_field_is_rejected_not_raised(self, field):
        cert = build_certificate((2, 3, 9, 42))
        if field == "terms":
            bad = replace(cert, terms=None)
        else:
            bad = replace(cert, node=replace(cert.node, **{field: None}))
        result = validate_certificate(bad)
        assert not result.ok
        assert result.reason.startswith("malformed_certificate: ")


class Forged(int):
    """An int term whose products with chosen ints are off.

    ``rmul`` maps a plain int ``x`` to the error added to ``x * term``.
    Under honest integer arithmetic the chain inequality and the three sum
    checks follow from the checks before them, so only forged arithmetic
    can show that each is still wired to its own reason.
    """

    def __new__(cls, value, rmul=None):
        self = super().__new__(cls, value)
        self.rmul = rmul or {}
        return self

    def __rmul__(self, other):
        return int(other) * int(self) + self.rmul.get(other, 0)


def forge(cert, position, **lies):
    """Replace one term of a certificate with a forged copy of itself."""
    terms = list(cert.terms)
    terms[position] = Forged(terms[position], **lies)
    return replace(cert, terms=tuple(terms))


class TestValidatorDefenceInDepth:
    # The validator's prefix-sum recurrence N_i = N_(i-1) * b_i + P_(i-1)
    # multiplies the numerator so far by the next term, so a lie in
    # ``rmul`` moves N_i and every sum read from it.

    def test_chain_inequality_violated(self):
        # 1 * 9 reads as 4, so the chain restarting at 9 falls below 7
        cert = build_certificate((2, 3, 9, 42))
        bad = forge(cert, 2, rmul={1: -5})
        bad = replace(bad, node=replace(cert.node, chain=((4, 7), (168, 301))))
        result = validate_certificate(bad)
        assert result.reason == "chain_inequality_violated: at j = 3"

    def test_tail_sum_comparison_violated(self):
        # N_3 * 42 = 51 * 42 reads 71 high, so the sum is 2267/2268 and the
        # tail (9, 42) reads (2267 - 5 * 378)/2268 = 377/2268, above the
        # Sylvester 50/301
        cert = build_certificate((2, 3, 9, 42))
        bad = forge(cert, 3, rmul={51: 71})
        assert validate_certificate(bad).reason == "tail_sum_comparison_violated"

    def test_tail_strictness_wrong(self):
        # N_3 * 43 = 41 * 43 reads 1 low, so the sum is 1804/1806 and the
        # equal tails (43,) read 41/1806 against 1/43 = 42/1806
        cert = build_certificate((2, 3, 7, 43))
        bad = forge(cert, 3, rmul={41: -1})
        assert validate_certificate(bad).reason == "tail_strictness_wrong"

    def test_final_strictness_wrong(self):
        # N_3 * 43 reads 1 high and P_3 * 43 = 42 * 43 reads 1849: the tail
        # still reads (1806 - 41 * 43)/1849 = 1/43, but the full sum
        # 1806/1849 is below 1805/1806 against a claimed equality
        cert = build_certificate((2, 3, 7, 43))
        bad = forge(cert, 3, rmul={41: 1, 42: 43})
        assert validate_certificate(bad).reason == "final_strictness_wrong"


def _reference_table(k):
    terms = []
    prods = [1]
    for _ in range(k):
        terms.append(prods[-1] + 1)
        prods.append(prods[-1] * terms[-1])
    nums = [_reference_numerator(terms[:i], prods[i]) for i in range(k + 1)]
    return tuple(terms), prods, nums


def _reference_numerator(values, common):
    return sum(common // v for v in values)


def _reference_sign(num_b, pb, num_a, pa):
    lhs = num_b * pa
    rhs = num_a * pb
    return (lhs > rhs) - (lhs < rhs)


def fail(reason):
    return ValidationResult(False, reason)


def reference_validate(cert):
    """The validator as a recursion down the head spine, one call per level.

    Each level re-checks its own terms and rebuilds its own products and
    sums, so it is slow, but every reason is read off the level it names.
    """
    try:
        return _reference_level(cert, None)
    except Exception as exc:
        return ValidationResult(
            False, f"malformed_certificate: {type(exc).__name__}: {exc}"
        )


def _reference_level(cert, table):
    terms = tuple(cert.terms)
    k = len(terms)
    for i, t in enumerate(terms):
        if not isinstance(t, int) or t < 2:
            return fail(f"term_invalid: terms[{i}] = {t!r}")
        if i and terms[i - 1] > t:
            return fail(f"terms_not_sorted: terms[{i - 1}] > terms[{i}]")
    pb = math.prod(terms)
    num_b = _reference_numerator(terms, pb)
    if num_b >= pb:
        return fail("sum_not_below_one")
    if table is None:
        table = _reference_table(k)
    a_terms, a_prods, a_nums = table
    pa = a_prods[k]
    node = cert.node

    if isinstance(node, Empty):
        if k != 0:
            return fail("empty_node_on_nonempty_tuple")
        if cert.is_equality is not True:
            return fail("empty_certificate_must_claim_equality")
        return ValidationResult(True)

    if isinstance(node, ProductDeficit):
        if k == 0:
            return fail("product_deficit_on_empty_tuple")
        if node.b_product != pb or node.a_product != pa:
            return fail(
                f"recorded_products_mismatch: stored ({node.b_product}, "
                f"{node.a_product}), recomputed ({pb}, {pa})"
            )
        if pb >= pa:
            return fail(f"no_deficit: product {pb} is not below {pa}")
        if cert.is_equality:
            return fail("deficit_certificate_claims_equality")
        if _reference_sign(num_b, pb, a_nums[k], pa) >= 0:
            return fail("final_inequality_not_strict")
        return ValidationResult(True)

    if not isinstance(node, Split):
        return fail(f"unknown_node_kind: {type(node).__name__}")
    ell = node.ell
    if not isinstance(ell, int) or not 1 <= ell <= k:
        return fail(f"ell_out_of_range: {ell!r}")
    suffix_b = [1] * (k + 2)
    suffix_a = [1] * (k + 2)
    for j in range(k, 0, -1):
        suffix_b[j] = terms[j - 1] * suffix_b[j + 1]
        suffix_a[j] = a_terms[j - 1] * suffix_a[j + 1]
    if suffix_b[ell] < suffix_a[ell]:
        return fail(
            f"suffix_not_dominating: at j = {ell}, {suffix_b[ell]} < "
            f"{suffix_a[ell]}"
        )
    for j in range(ell + 1, k + 1):
        if suffix_b[j] >= suffix_a[j]:
            return fail(
                f"ell_not_maximal: suffix at j = {j} dominates "
                f"({suffix_b[j]} >= {suffix_a[j]})"
            )
    if ell == k:
        if node.deficit_witness is not None:
            return fail("deficit_witness_present_for_full_split")
    else:
        expected = (suffix_b[ell + 1], suffix_a[ell + 1])
        if node.deficit_witness != expected:
            return fail(
                f"deficit_witness_mismatch: stored "
                f"{node.deficit_witness}, recomputed {expected}"
            )
    if len(node.chain) != k - ell + 1:
        return fail(
            f"chain_length_mismatch: {len(node.chain)} pairs for "
            f"positions {ell}..{k}"
        )
    run_b = run_a = 1
    for idx, j in enumerate(range(ell, k + 1)):
        run_b *= terms[j - 1]
        run_a *= a_terms[j - 1]
        if node.chain[idx] != (run_b, run_a):
            return fail(
                f"chain_pair_mismatch: at j = {j}, stored "
                f"{node.chain[idx]}, recomputed ({run_b}, {run_a})"
            )
        if run_b < run_a:
            return fail(f"chain_inequality_violated: at j = {j}")
    tail_b = terms[ell - 1 :]
    tail_a = a_terms[ell - 1 : k]
    if node.tail_equality != (tail_b == tail_a):
        return fail("tail_equality_flag_wrong")
    tail_sign = _reference_sign(
        _reference_numerator(tail_b, suffix_b[ell]),
        suffix_b[ell],
        _reference_numerator(tail_a, suffix_a[ell]),
        suffix_a[ell],
    )
    if tail_sign > 0:
        return fail("tail_sum_comparison_violated")
    if (tail_sign == 0) != node.tail_equality:
        return fail("tail_strictness_wrong")
    head = node.head
    if tuple(head.terms) != terms[: ell - 1]:
        return fail(
            f"head_tuple_mismatch: head covers {head.terms}, expected "
            f"{terms[: ell - 1]}"
        )
    head_result = _reference_level(head, table)
    if not head_result.ok:
        return fail(f"head: {head_result.reason}")
    if cert.is_equality != (node.tail_equality and head.is_equality):
        return fail("equality_flag_inconsistent")
    final_sign = _reference_sign(num_b, pb, a_nums[k], pa)
    if final_sign > 0:
        return fail("final_inequality_violated")
    if (final_sign == 0) != cert.is_equality:
        return fail("final_strictness_wrong")
    return ValidationResult(True)


def _bumped(pair, delta):
    return None if pair is None else (pair[0] + delta, pair[1])


@st.composite
def spine_tampers(draw):
    """A built certificate with one field changed at a random spine depth.

    Terms stay plain ints or floats: a head is read through the top
    tuple's prefix, so int subclasses with lying arithmetic are left to
    TestValidatorDefenceInDepth, which forges the top tuple.
    """
    spine = spine_levels(build_certificate(draw(valid_tuples(max_len=6))))
    depth = draw(st.integers(0, len(spine) - 1))
    level = spine[depth]
    node = level.node
    fields = ["is_equality", "terms", "float_terms", "node"]
    if isinstance(node, Split):
        fields += ["ell", "chain", "deficit_witness", "tail_equality", "head"]
    field = draw(st.sampled_from(fields))
    delta = draw(st.sampled_from((-1, 1)))
    small = st.integers(0, 2000)
    if field == "is_equality":
        level = replace(level, is_equality=not level.is_equality)
    elif field == "terms" and level.terms:
        i = draw(st.integers(0, len(level.terms) - 1))
        terms = list(level.terms)
        terms[i] += delta
        level = replace(level, terms=tuple(terms))
    elif field == "float_terms":
        level = replace(level, terms=tuple(float(t) for t in level.terms))
    elif field == "node":
        level = replace(level, node=draw(st.one_of(
            st.just(Empty()), st.builds(ProductDeficit, small, small)
        )))
    elif field == "ell":
        ell = draw(st.one_of(st.integers(-1, len(level.terms) + 1), st.none()))
        level = replace(level, node=replace(node, ell=ell))
    elif field == "chain":
        i = draw(st.integers(0, len(node.chain) - 1))
        chain = list(node.chain)
        chain[i] = _bumped(chain[i], delta)
        level = replace(level, node=replace(node, chain=tuple(chain)))
    elif field == "deficit_witness":
        witness = draw(st.sampled_from((None, _bumped(node.deficit_witness, delta))))
        level = replace(level, node=replace(node, deficit_witness=witness))
    elif field == "tail_equality":
        level = replace(level, node=replace(node, tail_equality=not node.tail_equality))
    elif field == "head":
        head = build_certificate(draw(valid_tuples(max_len=3)))
        level = replace(level, node=replace(node, head=head))
    return respine(spine, depth, level)


def spine_levels(cert):
    """The certificate and every head below it, top first."""
    spine = [cert]
    while isinstance(spine[-1].node, Split):
        spine.append(spine[-1].node.head)
    return spine


def respine(spine, depth, level):
    """The top certificate with ``level`` in place of ``spine[depth]``."""
    for parent in reversed(spine[:depth]):
        level = replace(parent, node=replace(parent.node, head=level))
    return level


def level_tampers(level):
    """One fixed change of each field kind that spine_tampers draws."""
    node, terms = level.node, level.terms
    yield replace(level, is_equality=not level.is_equality)
    if terms:
        yield replace(level, terms=terms[:-1] + (terms[-1] + 1,))
        yield replace(level, terms=(terms[0] - 1,) + terms[1:])
        # only the first: later terms can be too large for a float
        yield replace(level, terms=(float(terms[0]),) + terms[1:])
    yield replace(level, node=ProductDeficit(7, 11))
    if not isinstance(node, Split):
        return
    yield replace(level, node=Empty())
    for ell in (0, node.ell - 1, node.ell + 1, len(terms) + 1, None):
        yield replace(level, node=replace(node, ell=ell))
    for i, delta in ((0, 1), (-1, -1)):
        chain = list(node.chain)
        chain[i] = _bumped(chain[i], delta)
        yield replace(level, node=replace(node, chain=tuple(chain)))
    for witness in (None, _bumped(node.deficit_witness, 1)):
        if witness != node.deficit_witness:
            yield replace(level, node=replace(node, deficit_witness=witness))
    yield replace(level, node=replace(node, tail_equality=not node.tail_equality))
    yield replace(level, node=replace(node, head=build_certificate((2, 5))))


def deep_spine_tuples():
    """Sylvester prefixes of 7 to 14 terms and two variants of each."""
    for k in range(7, 15):
        a = sylvester(k).terms
        yield a
        # the last suffix falls short, so ell = k - 1 over a Sylvester head
        yield a[:-2] + (a[-2] + 1, a[-1] - 1)
        # Splits at ell = j for every j >= 4, down to the deficit head (2, 4, 5)
        yield (2, 4, 5, 46) + a[4:]


class TestSpineWalk:
    def test_float_head_is_rejected_inside_the_head(self):
        cert = build_certificate((2, 3, 9, 42))
        head = replace(cert.node.head, terms=(2.0, 3))
        bad = replace(cert, node=replace(cert.node, head=head))
        assert validate_certificate(bad).reason == "head: term_invalid: terms[0] = 2.0"

    def test_the_heads_reason_wins_over_the_outer_flag(self):
        # the top's own flipped flag would give equality_flag_inconsistent
        cert = build_certificate((2, 3, 7, 43))
        head = cert.node.head
        outer = replace(cert, is_equality=False)
        assert validate_certificate(outer).reason == "equality_flag_inconsistent"
        bad_chain = replace(head, node=replace(head.node, chain=((8, 7),)))
        bad = replace(outer, node=replace(cert.node, head=bad_chain))
        assert validate_certificate(bad).reason == (
            "head: chain_pair_mismatch: at j = 3, stored (8, 7), recomputed (7, 7)"
        )
        bad_flag = replace(head, is_equality=False)
        bad = replace(outer, node=replace(cert.node, head=bad_flag))
        assert validate_certificate(bad).reason == "head: equality_flag_inconsistent"

    @given(spine_tampers())
    @settings(max_examples=400)
    def test_matches_the_recursive_reference(self, cert):
        assert validate_certificate(cert) == reference_validate(cert)

    def test_matches_the_recursive_reference_on_deep_spines(self):
        # spine_tampers stops at 6 terms; these tamper every depth of
        # spines of 7 to 14 terms, where each level reads the prefix sums
        # at ell - 1
        for terms in deep_spine_tuples():
            cert = build_certificate(terms)
            assert validate_certificate(cert).ok
            assert reference_validate(cert).ok
            spine = spine_levels(cert)
            for depth, level in enumerate(spine):
                for bad in level_tampers(level):
                    bad = respine(spine, depth, bad)
                    assert validate_certificate(bad) == reference_validate(bad)

    def test_twenty_term_prefix_validates_as_an_equality(self):
        cert = build_certificate(sylvester(20).terms)
        assert cert.is_equality
        assert validate_certificate(cert).ok


class TestNonIntegerTerms:
    @pytest.mark.parametrize("bad", [3.0, Fraction(5, 2), "3"])
    def test_rejected_before_the_builder_cache(self, bad):
        with pytest.raises(TermNotInteger):
            build_certificate((bad, 4))
        cert = build_certificate((3, 4))
        assert [type(t) for t in cert.terms] == [int, int]
        assert validate_certificate(cert).ok


class TestCrossModuleAgreement:
    def test_sweep_equality_appears_once_per_length(self):
        # every valid pair with terms <= 20: is_equality exactly at (2,3)
        hits = []
        for b1 in range(2, 21):
            for b2 in range(b1, 21):
                if Fraction(1, b1) + Fraction(1, b2) >= 1:
                    continue
                cert = build_certificate((b1, b2))
                assert validate_certificate(cert).ok
                if cert.is_equality:
                    hits.append((b1, b2))
        assert hits == [(2, 3)]
