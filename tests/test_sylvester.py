"""The product-plus-one sequence and its exact identities."""

import math
from fractions import Fraction

import pytest

from efrac import shortfall_identity_check, sylvester, sum_reciprocals
from efrac.errors import CapExceeded


def test_first_terms():
    assert sylvester(4).terms == (2, 3, 7, 43)


def test_empty_prefix():
    prefix = sylvester(0)
    assert prefix.terms == ()
    assert prefix.running_product == 1
    assert prefix.k == 0


def test_six_terms():
    assert sylvester(6).terms == (2, 3, 7, 43, 1807, 3263443)


def test_running_product():
    assert sylvester(4).running_product == 1806
    assert sylvester(5).running_product == 3263442


def test_product_recurrence():
    prefix = sylvester(10)
    prod = 1
    for term in prefix.terms:
        assert term == prod + 1
        prod *= term
    assert prod == prefix.running_product


def test_squared_recurrence():
    terms = sylvester(12).terms
    for j in range(1, 12):
        assert terms[j] == terms[j - 1] ** 2 - terms[j - 1] + 1


def test_pairwise_coprime():
    terms = sylvester(8).terms
    for i in range(8):
        for j in range(i + 1, 8):
            assert math.gcd(terms[i], terms[j]) == 1


def test_strictly_increasing():
    terms = sylvester(12).terms
    assert all(terms[i] < terms[i + 1] for i in range(11))


def test_digit_growth_nearly_doubles():
    # each term is squarish in the previous one, so the digit count obeys
    # d(next) >= 2*d(prev) - 1; plain doubling fails at term 8 (27 digits
    # against term 7's 14), which pins the -1 as genuinely needed
    terms = sylvester(9).terms
    digits = [len(str(t)) for t in terms]
    for j in range(5, 9):
        assert digits[j] >= 2 * digits[j - 1] - 1
    assert digits[6] == 14 and digits[7] == 27


@pytest.mark.parametrize("k", range(13))
def test_shortfall_identity(k):
    lhs, rhs, equal = shortfall_identity_check(k)
    assert equal
    assert lhs == rhs
    assert rhs == 1 - Fraction(1, sylvester(k).running_product)


def test_shortfall_values():
    assert shortfall_identity_check(3)[0] == Fraction(41, 42)
    assert shortfall_identity_check(4)[0] == Fraction(1805, 1806)
    assert shortfall_identity_check(0) == (Fraction(0), Fraction(0), True)


def test_reciprocal_sum_matches_identity():
    prefix = sylvester(7)
    assert sum_reciprocals(prefix.terms) == 1 - Fraction(1, prefix.running_product)


def test_cap_enforced():
    with pytest.raises(CapExceeded):
        sylvester(65)
    with pytest.raises(CapExceeded):
        sylvester(5, cap=4)
    assert sylvester(5, cap=5).k == 5


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        sylvester(-1)


def test_prefixes_are_cached_per_length():
    assert sylvester(9) is sylvester(9)
    assert sylvester(9).terms[:5] == sylvester(5).terms


def test_cap_is_checked_before_the_cache():
    sylvester(6)
    with pytest.raises(CapExceeded):
        sylvester(6, cap=5)
