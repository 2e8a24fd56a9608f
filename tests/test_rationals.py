"""Text formats, tuple validation, and the two aggregate quantities."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from efrac import (
    DenominatorTuple,
    format_rational,
    product,
    sum_reciprocals,
    validate_tuple,
)
from efrac.errors import (
    NotSorted,
    ParseError,
    SumNotBelowOne,
    TermNotInteger,
    TermTooSmall,
)
from efrac.rationals import (
    _decimal,
    format_int_list,
    parse_int_list,
    parse_rational,
)
from tests.conftest import int_str_limit, needs_int_str_limit, valid_tuples


class TestParseRational:
    def test_plain_integer(self):
        assert parse_rational("5") == Fraction(5)

    def test_fraction(self):
        assert parse_rational("41/42") == Fraction(41, 42)

    def test_negative(self):
        assert parse_rational("-3/7") == Fraction(-3, 7)

    def test_zero(self):
        assert parse_rational("0") == Fraction(0)

    def test_unreduced_input_normalizes(self):
        assert parse_rational("2/4") == Fraction(1, 2)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1/-2", "1//2", "1.5", "3 /4"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_rational(bad)


class TestFormatRational:
    def test_omits_unit_denominator(self):
        assert format_rational(Fraction(5)) == "5"

    def test_keeps_denominator(self):
        assert format_rational(Fraction(41, 42)) == "41/42"

    def test_zero(self):
        assert format_rational(Fraction(0)) == "0"

    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_round_trip_is_identity_on_reduced_form(self, p, q):
        value = Fraction(p, q)
        assert parse_rational(format_rational(value)) == value


@needs_int_str_limit
class TestDecimal:
    """Decimal text for ints past CPython's int-to-str digit limit."""

    @staticmethod
    def samples(cap):
        # both sides of the digit cap and of the bit-length guard 3 * cap
        for base in (10**cap, 2 ** (3 * cap)):
            for delta in (-2, -1, 0, 1, 2):
                yield base + delta
                yield -(base + delta)

    @pytest.mark.parametrize("cap", [640, 4300])
    def test_matches_str_under_any_cap(self, cap):
        with int_str_limit(cap):
            got = [_decimal(n) for n in self.samples(cap)]
        with int_str_limit(0):
            assert got == [str(n) for n in self.samples(cap)]

    def test_two_hundred_thousand_bits(self):
        n = (1 << 200_000) - 12345
        with int_str_limit(4300):
            text = _decimal(n)
        with int_str_limit(0):
            assert text == str(n)

    def test_formats_use_it(self):
        n = 10**5000 + 7
        with int_str_limit(4300):
            rational = format_rational(Fraction(1, n))
            terms = format_int_list((n, n))
        with int_str_limit(0):
            assert rational == f"1/{n}"
            assert terms == f"{n},{n}"


class TestTermsFormat:
    def test_empty_string_is_empty_tuple(self):
        assert parse_int_list("") == ()

    def test_parse(self):
        assert parse_int_list("2,3,7,43") == (2, 3, 7, 43)

    def test_format(self):
        assert format_int_list((2, 3, 7, 43)) == "2,3,7,43"

    def test_format_empty(self):
        assert format_int_list(()) == ""

    @pytest.mark.parametrize("bad", ["2,x", "2,,3", "2, 3", "2;3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_int_list(bad)


class TestDenominatorTuple:
    def test_construction(self):
        tup = DenominatorTuple((2, 3, 7))
        assert len(tup) == 3
        assert list(tup) == [2, 3, 7]
        assert tup[1] == 3
        assert str(tup) == "2,3,7"

    def test_empty_is_allowed(self):
        assert len(DenominatorTuple(())) == 0

    def test_slice_stays_validated(self):
        tup = DenominatorTuple((2, 3, 7, 43))
        assert isinstance(tup[:2], DenominatorTuple)
        assert tup[:2].terms == (2, 3)

    def test_rejects_term_below_two(self):
        with pytest.raises(TermTooSmall):
            DenominatorTuple((1, 2))

    def test_rejects_decreasing(self):
        with pytest.raises(NotSorted):
            DenominatorTuple((3, 2))

    def test_repeats_are_fine(self):
        assert DenominatorTuple((3, 3, 4)).terms == (3, 3, 4)

    @pytest.mark.parametrize("bad", [3.0, Fraction(5, 2), Fraction(3), "3"])
    def test_rejects_terms_that_are_not_ints(self, bad):
        with pytest.raises(TermNotInteger, match=r"terms\[0\] = "):
            DenominatorTuple((bad, 4))
        with pytest.raises(TermNotInteger):
            validate_tuple((bad, 4))
        assert TermNotInteger.code == "TermNotInteger"

    def test_int_subclasses_are_stored_as_plain_ints(self):
        class Tagged(int):
            pass

        tup = DenominatorTuple((Tagged(3), 4, Tagged(5)))
        assert tup.terms == (3, 4, 5)
        assert [type(t) for t in tup.terms] == [int, int, int]


class TestAggregates:
    def test_empty_sum_is_zero(self):
        assert sum_reciprocals(()) == 0

    def test_sum_examples(self):
        assert sum_reciprocals((2, 3, 7)) == Fraction(41, 42)
        assert sum_reciprocals((2, 3, 9, 42)) == Fraction(61, 63)

    def test_empty_product_is_one(self):
        assert product(()) == 1

    def test_product_examples(self):
        assert product((2, 3, 7, 43)) == 1806
        assert product((2, 3, 9, 42)) == 2268

    @given(st.permutations([2, 3, 9, 42]))
    def test_order_does_not_change_aggregates(self, perm):
        assert sum_reciprocals(perm) == Fraction(61, 63)
        assert product(perm) == 2268


class TestValidateTuple:
    def test_accepts_valid(self):
        assert validate_tuple((2, 3, 7)).terms == (2, 3, 7)

    def test_rejects_sum_one(self):
        with pytest.raises(SumNotBelowOne):
            validate_tuple((2, 2))

    def test_rejects_unsorted_rather_than_sorting(self):
        with pytest.raises(NotSorted):
            validate_tuple((3, 2))

    def test_rejects_small_term(self):
        with pytest.raises(TermTooSmall):
            validate_tuple((1, 2))

    def test_custom_target_boundary_is_strict(self):
        # sum is exactly 3/4, which must not count as below 3/4
        with pytest.raises(SumNotBelowOne):
            validate_tuple((2, 4), Fraction(3, 4))
        assert validate_tuple((2, 5), Fraction(3, 4)).terms == (2, 5)

    @given(
        st.lists(st.integers(min_value=2, max_value=30), max_size=6).map(sorted),
        st.one_of(
            st.just(1),
            st.integers(min_value=1, max_value=60).flatmap(
                lambda q: st.builds(
                    Fraction, st.integers(min_value=1, max_value=q), st.just(q)
                )
            ),
        ),
    )
    def test_integer_check_agrees_with_fraction_sum(self, terms, target):
        total = sum_reciprocals(terms)
        if total < target:
            assert validate_tuple(terms, target).terms == tuple(terms)
            return
        with pytest.raises(SumNotBelowOne) as info:
            validate_tuple(terms, target)
        assert str(info.value) == (
            f"reciprocal sum {format_rational(total)} is not strictly below "
            f"{format_rational(target)}"
        )

    @given(valid_tuples())
    def test_generated_tuples_validate(self, terms):
        tup = validate_tuple(terms)
        assert sum_reciprocals(tup) < 1

    @given(valid_tuples())
    def test_integer_numerator_stays_below_product(self, terms):
        # the reciprocal sum over the common denominator product(t) has an
        # integer numerator, at most product(t) - 1 for any accepted tuple
        tup = validate_tuple(terms)
        p = product(tup)
        numerator = sum(p // b for b in tup)
        assert all(p % b == 0 for b in tup)
        assert numerator <= p - 1
        assert Fraction(numerator, p) == sum_reciprocals(tup)
