"""Shared strategies and samplers for the test suite."""

import contextlib
import sys
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from efrac import MajorizationInstance


@st.composite
def valid_tuples(draw, max_len=5, spread=4):
    """Nondecreasing integer tuples with reciprocal sum strictly below 1.

    Built constructively: each term is drawn from the range that keeps the
    running sum below 1, so no filtering is needed. ``spread`` controls how
    far above the forced minimum a term may land; small spreads keep the
    tuples near the greedy spine where the interesting certificate shapes
    (splits with high ell, near-equality tails) live.
    """
    k = draw(st.integers(min_value=1, max_value=max_len))
    terms = []
    total = Fraction(0)
    prev = 2
    for _ in range(k):
        gap = 1 - total
        lo = max(prev, gap.denominator // gap.numerator + 1)
        b = draw(st.integers(min_value=lo, max_value=lo + spread))
        terms.append(b)
        total += Fraction(1, b)
        prev = b
    return tuple(terms)


@st.composite
def rational_sequences(draw, n, bound=12):
    entries = sorted(
        (
            Fraction(
                draw(st.integers(min_value=1, max_value=bound)),
                draw(st.integers(min_value=1, max_value=bound)),
            )
            for _ in range(n)
        ),
        reverse=True,
    )
    return tuple(entries)


@st.composite
def majorization_instances(draw, n_max=4, bound=12):
    """Well-formed instances; hypotheses may or may not hold."""
    n = draw(st.integers(min_value=1, max_value=n_max))
    return MajorizationInstance(
        draw(rational_sequences(n, bound)), draw(rational_sequences(n, bound))
    )


needs_int_str_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this Python has no int-to-str digit limit",
)


@contextlib.contextmanager
def int_str_limit(digits):
    """Run the block under CPython's int-to-str limit set to digits (0: none)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
