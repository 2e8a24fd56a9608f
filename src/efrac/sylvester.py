"""The Sylvester sequence 2, 3, 7, 43, 1807, ... and its shortfall identity.

Each term is one more than the product of all earlier terms, so the
reciprocal sum of the first k terms falls short of 1 by exactly the
reciprocal of the running product. Terms roughly square at every step;
a configurable cap keeps accidental huge requests from allocating
numbers with astronomically many digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapExceeded
from .rationals import ONE, sum_reciprocals

DEFAULT_TERM_CAP = 64


@dataclass(frozen=True)
class SylvesterPrefix:
    """The first k terms together with their product."""

    terms: tuple[int, ...]
    running_product: int

    @property
    def k(self) -> int:
        return len(self.terms)


def sylvester(k: int, cap: int = DEFAULT_TERM_CAP) -> SylvesterPrefix:
    """First k terms of the sequence, built by the product recurrence.

    The recurrence term = product + 1 covers the base case too, since the
    empty product is 1. Prefixes are cached per k behind the cap check, so
    a cached long prefix never gets past a lower cap.
    """
    if k < 0:
        raise ValueError(f"term count must be nonnegative, got {k}")
    if k > cap:
        raise CapExceeded(f"requested {k} terms but the cap is {cap}")
    return _prefix(k)


@lru_cache(maxsize=None)
def _prefix(k: int) -> SylvesterPrefix:
    terms = []
    prod = 1
    for _ in range(k):
        term = prod + 1
        terms.append(term)
        prod *= term
    return SylvesterPrefix(tuple(terms), prod)


def shortfall_identity_check(k: int) -> tuple[Fraction, Fraction, bool]:
    """Compare the k-term reciprocal sum with 1 - 1/(running product).

    Returns both exact values and whether they agree; they always do, and
    the flag exists so callers can assert the identity rather than trust it.
    """
    prefix = sylvester(k)
    lhs = sum_reciprocals(prefix.terms)
    rhs = ONE - Fraction(1, prefix.running_product)
    return lhs, rhs, lhs == rhs
