"""Certificate construction and the independent re-checker.

Both sides work in integers, and they stay independent because they share
no code: the builder makes one backward pass over suffix products and one
forward pass over the tail, while the validator re-derives every claim from
its own Sylvester table and its own sums over common denominators. The
public reference functions (``quick_strict_check``, ``largest_ell``,
``chain_from_ell``) serve as an oracle for the builder's nodes. Tampering
tests flip single fields and expect the validator to name the broken claim.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings

from efrac import (
    ChainViolated,
    Empty,
    InvalidTuple,
    PreconditionProductDeficit,
    ProductDeficit,
    Split,
    build_certificate,
    chain_from_ell,
    largest_ell,
    product,
    quick_strict_check,
    sum_reciprocals,
    sylvester,
    validate_certificate,
)
from tests.conftest import valid_tuples


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
        with pytest.raises(PreconditionProductDeficit):
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
        with pytest.raises(ChainViolated):
            chain_from_ell((2, 5, 5, 11), 2)

    def test_ell_out_of_range(self):
        with pytest.raises(ValueError):
            chain_from_ell((2, 3, 9, 42), 0)
        with pytest.raises(ValueError):
            chain_from_ell((2, 3, 9, 42), 5)


def assert_matches_reference(terms):
    """The builder's node agrees with the public reference functions."""
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


class TestValidateCertificate:
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


class Forged(int):
    """An int term whose products and quotients with chosen ints are off.

    ``rmul`` and ``rfloordiv`` map a plain int ``x`` to the error added to
    ``x * term`` and ``x // term``. Under honest integer arithmetic the
    chain inequality and the three sum checks follow from the checks before
    them, so only forged arithmetic can show that each is still wired to
    its own reason.
    """

    def __new__(cls, value, rmul=None, rfloordiv=None):
        self = super().__new__(cls, value)
        self.rmul = rmul or {}
        self.rfloordiv = rfloordiv or {}
        return self

    def __rmul__(self, other):
        return int(other) * int(self) + self.rmul.get(other, 0)

    def __rfloordiv__(self, other):
        return int(other) // int(self) + self.rfloordiv.get(other, 0)


def forge(cert, position, **lies):
    """Replace one term of a certificate with a forged copy of itself."""
    terms = list(cert.terms)
    terms[position] = Forged(terms[position], **lies)
    return replace(cert, terms=tuple(terms))


class TestValidatorDefenceInDepth:
    def test_chain_inequality_violated(self):
        # 1 * 9 reads as 4, so the chain restarting at 9 falls below 7
        cert = build_certificate((2, 3, 9, 42))
        bad = forge(cert, 2, rmul={1: -5})
        bad = replace(bad, node=replace(cert.node, chain=((4, 7), (168, 301))))
        result = validate_certificate(bad)
        assert result.reason == "chain_inequality_violated: at j = 3"

    def test_tail_sum_comparison_violated(self):
        # 378 // 42 reads as 21: tail sum 63/378 above the Sylvester 50/301
        cert = build_certificate((2, 3, 9, 42))
        bad = forge(cert, 3, rfloordiv={378: 12})
        assert validate_certificate(bad).reason == "tail_sum_comparison_violated"

    def test_tail_strictness_wrong(self):
        # equal tails (43,) whose sums no longer agree
        cert = build_certificate((2, 3, 7, 43))
        bad = forge(cert, 3, rfloordiv={43: -1})
        assert validate_certificate(bad).reason == "tail_strictness_wrong"

    def test_final_strictness_wrong(self):
        # only the full sum moves: 1804/1806 against a claimed equality
        cert = build_certificate((2, 3, 7, 43))
        bad = forge(cert, 3, rfloordiv={1806: -1})
        assert validate_certificate(bad).reason == "final_strictness_wrong"


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
