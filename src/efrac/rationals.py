"""Exact rationals and validated unit-fraction denominator tuples.

Every quantity in this package is an exact :class:`fractions.Fraction` or
an arbitrary-precision ``int``; floating point is never used anywhere.
This module fixes the two text formats shared by the command-line layer
(``p/q`` for rationals, comma-separated integers for tuples) and provides
the validated nondecreasing denominator tuple together with its two
aggregate quantities, the reciprocal sum and the term product.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union, overload

from .errors import NotSorted, ParseError, SumNotBelowOne
from .errors import TermNotInteger, TermTooSmall

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` with a positive literal denominator."""
    match = _RATIONAL_RE.match(text)
    if match is None:
        raise ParseError(f"not a rational: {text!r} (expected 'p' or 'p/q')")
    num = int(match.group(1))
    den = int(match.group(2)) if match.group(2) else 1
    return Fraction(num, den)


# CPython 3.10.7 and later cap int-to-str conversion; earlier ones do not.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any size, without lifting CPython's digit cap.

    Below 2**(3 * cap) an int has at most cap digits (8 < 10), so it goes
    to ``str`` directly. A larger one is split at a power of ten below
    half its digit count (0.15 < log10(2) / 2) and each half rendered the
    same way, the low half zero-padded.
    """
    cap = _max_str_digits()
    if not cap or n.bit_length() <= 3 * cap:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    digits = n.bit_length() * 3 // 20
    high, low = divmod(n, 10**digits)
    return _decimal(high) + _decimal(low).zfill(digits)


def format_rational(value: Fraction) -> str:
    """Render in lowest terms, omitting the denominator when it is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def parse_int_list(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer list; the empty string is empty."""
    if text == "":
        return ()
    items = text.split(",")
    for item in items:
        if not _INT_RE.match(item):
            raise ParseError(f"not an integer list: {text!r} (bad item {item!r})")
    return tuple(int(item) for item in items)


def format_int_list(values: Iterable[int]) -> str:
    return ",".join(_decimal(v) for v in values)


def parse_rational_list(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals; the empty string is empty."""
    if text == "":
        return ()
    return tuple(parse_rational(item) for item in text.split(","))


@dataclass(frozen=True)
class DenominatorTuple:
    """A nondecreasing tuple of integer denominators, all at least 2.

    The empty tuple is allowed and has reciprocal sum 0. Construction
    rejects unsorted input rather than sorting it, so a tuple object is
    always evidence that its invariants were checked.
    """

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        prev = None
        for i, term in enumerate(terms):
            if type(term) is not int:
                if not isinstance(term, int):
                    raise TermNotInteger(f"terms[{i}] = {term!r} is not an int")
                terms = (*terms[:i], int(term), *terms[i + 1 :])  # as a plain int
            if term < 2:
                raise TermTooSmall(
                    f"terms[{i}] = {term}: every denominator must be at least 2"
                )
            if prev is not None and term < prev:
                raise NotSorted(
                    f"terms must be nondecreasing: terms[{i - 1}] = {prev} "
                    f"is followed by terms[{i}] = {term}"
                )
            prev = term
        object.__setattr__(self, "terms", terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> "DenominatorTuple": ...

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return DenominatorTuple(self.terms[index])
        return self.terms[index]

    def __str__(self) -> str:
        return format_int_list(self.terms)


def sum_reciprocals(terms: Union[DenominatorTuple, Iterable[int]]) -> Fraction:
    """Exact value of 1/b1 + ... + 1/bk; the empty sum is 0."""
    total = ZERO
    for term in terms:
        total += Fraction(1, term)
    return total


def product(terms: Union[DenominatorTuple, Iterable[int]]) -> int:
    """Exact value of b1 * ... * bk; the empty product is 1."""
    return math.prod(terms)


def validate_tuple(
    raw: Union[DenominatorTuple, Sequence[int]],
    target: Fraction = ONE,
) -> DenominatorTuple:
    """Check order, term size, and that the reciprocal sum stays below target.

    ``target`` is an ``int`` or a :class:`Fraction`.

    Input order is respected, never repaired: ``[3, 2]`` is rejected with
    :class:`NotSorted` even though sorting would make it valid; a caller
    that wants sorting sorts first.
    """
    tup = raw if isinstance(raw, DenominatorTuple) else DenominatorTuple(tuple(raw))
    # The sum is num/den with den the term product; compare it with the
    # target p/q by cross multiplication (den and q are positive).
    num, den = 0, 1
    for term in tup.terms:
        num, den = num * term + den, den * term
    if num * target.denominator >= target.numerator * den:
        raise SumNotBelowOne(
            f"reciprocal sum {format_rational(Fraction(num, den))} is not "
            f"strictly below {format_rational(target)}"
        )
    return tup
