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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union, overload

from .errors import NotSorted, ParseError, SumNotBelowOne, TermTooSmall

Rational = Fraction

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


def format_rational(value: Fraction) -> str:
    """Render in lowest terms, omitting the denominator when it is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


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
    return ",".join(str(v) for v in values)


def parse_rational_list(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated list of rationals; the empty string is empty."""
    if text == "":
        return ()
    return tuple(parse_rational(item) for item in text.split(","))


# Denominator tuples reuse the generic integer-list text format.
parse_terms = parse_int_list
format_terms = format_int_list


@dataclass(frozen=True)
class DenominatorTuple:
    """A nondecreasing tuple of integer denominators, all at least 2.

    The empty tuple is allowed and has reciprocal sum 0. Construction
    rejects unsorted input rather than sorting it, so a tuple object is
    always evidence that its invariants were checked.
    """

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        prev = None
        for i, term in enumerate(self.terms):
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
        return format_terms(self.terms)


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
    :class:`NotSorted` even though sorting would make it valid. Use
    :func:`normalized_tuple` when sorting on the caller's behalf is wanted.
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


def normalized_tuple(
    raw: Sequence[int],
    target: Fraction = ONE,
) -> DenominatorTuple:
    """Sort, then validate. The explicit opt-in counterpart to validate_tuple."""
    return validate_tuple(sorted(raw), target)
