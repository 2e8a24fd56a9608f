"""Product-dominated sequences, augmentation, and Muirhead comparisons.

The central fact used by the certificate builder is: given two positive
nonincreasing sequences x and y whose prefix products satisfy
y1*...*yj <= x1*...*xj for every j, the sums satisfy sum(x) >= sum(y),
with equality only when the sequences agree entrywise. This module checks
the hypotheses and the conclusion directly in exact arithmetic, exposes
the two mechanical proof steps (augmenting both sequences so their total
products agree, then rescaling so the smallest entry is 1), and provides
an exact integer-exponent Muirhead checker that links multiplicative
prefix domination to additive majorization without logarithms.

A seeded randomized searcher looks for counterexamples to the sum
comparison; it is expected to find none when the hypotheses filter is on,
and to find plenty when the filter is disabled, which is the sanity check
that the hypotheses are doing real work.

The hot paths carry an entry p/q as the integer pair (p, q) with q > 0:
p/q < r/s exactly when p*s < r*q, and products and sums stay unreduced
integer pairs. The random draw sorts its pairs by that cross
multiplication with a stable reverse sort. Its output is nonincreasing in
value, and a multiset has only one nonincreasing value sequence, so only
pairs of equal value (2/4 and 1/2, which compare equal) can land in
another order than a Fraction sort would give, and those become equal
Fractions: the Fraction tuple is exactly ``sorted(..., reverse=True)``'s.
Fractions are built only for instances a caller asks for, such as a
reported counterexample.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Optional, Sequence

from .errors import (
    CapExceeded,
    HypothesesViolated,
    InvalidInstance,
    LengthMismatch,
)

# Symmetric sums enumerate all permutations, so the width must stay tiny.
MAX_SYMMETRIC_VALUES = 8
MAX_SYMMETRIC_BITS = 1 << 14  # on their integers' size; see symmetric_sum
MAX_SYMMETRIC_WORK = 1 << 24  # on all m! products together; see symmetric_sum
# A fuzz trial multiplies up to n_max drawn pairs per side, so its integers
# grow with n_max * value_bound.bit_length(); at this budget the slowest
# trial measured took under 0.5 s on two cores. See brute_force_prop_search.
MAX_FUZZ_WORK = 1 << 16

# Entries p/q as integer pairs (p, q) with q > 0; see the module docstring.
Pairs = Sequence[tuple[int, int]]


def _pairs(values: Iterable[Fraction]) -> list[tuple[int, int]]:
    return [(v.numerator, v.denominator) for v in values]


def _cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    """An integer with the sign of p/q - r/s, for a = (p, q) and b = (r, s)."""
    return a[0] * b[1] - b[0] * a[1]


_BY_VALUE = cmp_to_key(_cmp)


def _as_sorted_positive(name: str, values: Iterable[Fraction]) -> tuple[Fraction, ...]:
    out = tuple(Fraction(v) for v in values)
    pairs = _pairs(out)
    for i, v in enumerate(out):
        if pairs[i][0] <= 0:
            raise InvalidInstance(f"{name}[{i}] = {v} is not positive")
        if i and _cmp(pairs[i - 1], pairs[i]) < 0:
            raise InvalidInstance(
                f"{name} must be nonincreasing: {name}[{i - 1}] = {out[i - 1]} "
                f"is followed by {name}[{i}] = {v}"
            )
    return out


@dataclass(frozen=True)
class MajorizationInstance:
    """Two positive nonincreasing rational sequences of equal length."""

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _as_sorted_positive("x", self.x))
        object.__setattr__(self, "y", _as_sorted_positive("y", self.y))
        if len(self.x) != len(self.y):
            raise LengthMismatch(
                f"x has {len(self.x)} entries but y has {len(self.y)}"
            )
        if not self.x:
            raise InvalidInstance("instances must have at least one entry")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class MuirheadInstance:
    """Exponent vectors (nonincreasing integers) with positive values."""

    alpha: tuple[int, ...]
    alpha_prime: tuple[int, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", tuple(int(a) for a in self.alpha))
        object.__setattr__(
            self, "alpha_prime", tuple(int(a) for a in self.alpha_prime)
        )
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        for name, vec in (("alpha", self.alpha), ("alpha_prime", self.alpha_prime)):
            if any(vec[i - 1] < vec[i] for i in range(1, len(vec))):
                raise InvalidInstance(f"{name} must be nonincreasing: {vec}")
        if len(self.alpha) != len(self.alpha_prime):
            raise LengthMismatch(
                f"alpha has {len(self.alpha)} entries but alpha_prime has "
                f"{len(self.alpha_prime)}"
            )
        if len(self.values) != len(self.alpha):
            raise LengthMismatch(
                f"{len(self.alpha)} exponents but {len(self.values)} values"
            )
        for i, v in enumerate(self.values):
            if v <= 0:
                raise InvalidInstance(f"values[{i}] = {v} is not positive")


def _dominated(xs: Pairs, ys: Pairs) -> bool:
    # With x = p/q and y = r/t entrywise, py > px exactly when
    # prod(r) * prod(q) > prod(p) * prod(t) over the prefix.
    u = v = 1
    for (p, q), (r, t) in zip(xs, ys):
        u *= p * t
        v *= r * q
        if v > u:
            return False
    return True


def _sum_signs(xs: Pairs, ys: Pairs) -> tuple[bool, bool]:
    # sum(x) - sum(y) as num/den with den > 0, adding p/q - r/t per entry
    num, den = 0, 1
    for (p, q), (r, t) in zip(xs, ys):
        num, den = num * q * t + (p * t - r * q) * den, den * q * t
    return num >= 0, num == 0


def check_hypotheses(inst: MajorizationInstance) -> bool:
    """True when every y prefix product is at most the x prefix product."""
    return _dominated(_pairs(inst.x), _pairs(inst.y))


def sum_dominates(inst: MajorizationInstance) -> tuple[bool, bool]:
    """Return (sum(x) >= sum(y), sum(x) == sum(y)), both exact."""
    return _sum_signs(_pairs(inst.x), _pairs(inst.y))


def augment(inst: MajorizationInstance) -> MajorizationInstance:
    """Append one entry to each side so the total products become equal.

    The appended pair is
        x_new = min(x_n, y_n) * (y1*...*yn) / (x1*...*xn)
        y_new = min(x_n, y_n)
    which keeps both sequences nonincreasing (the product ratio is at
    most 1 under the hypotheses) and makes the full products agree, so
    the extended instance is majorization-ready. Raises
    :class:`HypothesesViolated` when prefix domination does not hold,
    since then x_new could exceed x_n.
    """
    xs, ys = _pairs(inst.x), _pairs(inst.y)
    if not _dominated(xs, ys):
        raise HypothesesViolated(
            "prefix products of y must not exceed those of x before augmenting"
        )
    tail = min(inst.x[-1], inst.y[-1])
    x_new = Fraction(
        tail.numerator * math.prod(r for r, _ in ys) * math.prod(q for _, q in xs),
        tail.denominator * math.prod(t for _, t in ys) * math.prod(p for p, _ in xs),
    )
    return MajorizationInstance(inst.x + (x_new,), inst.y + (tail,))


def normalize_scale(inst: MajorizationInstance) -> MajorizationInstance:
    """Rescale both sides by the same factor so the smallest entry is 1.

    Multiplying every entry by one positive rational preserves the
    ordering, the truth value of :func:`check_hypotheses`, the sign of
    sum(x) - sum(y), and equality of total products. Sequences are
    nonincreasing, so the smallest entry is the last of one side.
    """
    p, q = min(inst.x[-1], inst.y[-1]).as_integer_ratio()
    return MajorizationInstance(
        tuple(Fraction(v.numerator * q, v.denominator * p) for v in inst.x),
        tuple(Fraction(v.numerator * q, v.denominator * p) for v in inst.y),
    )


def prefix_dominates(alpha: Sequence[int], alpha_prime: Sequence[int]) -> bool:
    """Every prefix sum of alpha is at least the matching one of alpha_prime."""
    if len(alpha) != len(alpha_prime):
        raise LengthMismatch(
            f"alpha has {len(alpha)} entries but alpha_prime has {len(alpha_prime)}"
        )
    run = 0
    for a, b in zip(alpha, alpha_prime):
        run += a - b
        if run < 0:
            return False
    return True


def majorizes(alpha: Sequence[int], alpha_prime: Sequence[int]) -> bool:
    """Additive majorization: equal totals plus prefix-sum domination.

    Both vectors are expected nonincreasing; callers hold that invariant
    (see :class:`MuirheadInstance`).
    """
    if len(alpha) != len(alpha_prime):
        raise LengthMismatch(
            f"alpha has {len(alpha)} entries but alpha_prime has {len(alpha_prime)}"
        )
    if sum(alpha) != sum(alpha_prime):
        return False
    return prefix_dominates(alpha, alpha_prime)


def symmetric_sum(alpha: Sequence[int], values: Sequence[Fraction]) -> Fraction:
    """Muirhead symmetric sum: over all permutations s of the indices,
    add the product of values[s(i)] ** alpha[i].

    With the all-zero exponent vector every permutation contributes 1,
    so the result is m factorial. Exponents may be negative; values must
    be nonzero for that to make sense and positive in the intended use.
    More than MAX_SYMMETRIC_VALUES values, integers that could exceed
    MAX_SYMMETRIC_BITS bits, or m! products that could exceed
    MAX_SYMMETRIC_WORK bits together raise CapExceeded before any work is
    done.
    """
    if len(alpha) != len(values):
        raise LengthMismatch(
            f"{len(alpha)} exponents but {len(values)} values"
        )
    m = len(values)
    if m > MAX_SYMMETRIC_VALUES:
        raise CapExceeded(
            f"symmetric sums are capped at {MAX_SYMMETRIC_VALUES} values, got {m}"
        )
    # value**a = p**a / q**a for every exponent a of either sign, so with
    # lo = min(0, alpha) and hi = max(0, alpha) each permutation's product
    # is an integer over the one common denominator prod(p**-lo * q**hi).
    pairs = _pairs(Fraction(v) for v in values)
    lo, hi = min((0, *alpha)), max((0, *alpha))
    # Every factor, and the denominator per value, is under 2**((hi - lo) * width)
    width = max((max(p.bit_length(), q.bit_length()) for p, q in pairs), default=0)
    bits, count = m * (hi - lo) * width, math.factorial(m)
    if bits + count.bit_length() > MAX_SYMMETRIC_BITS:
        raise CapExceeded(f"symmetric sums are capped at {MAX_SYMMETRIC_BITS} bits")
    if count * bits > MAX_SYMMETRIC_WORK:
        raise CapExceeded(
            f"symmetric sums are capped at {MAX_SYMMETRIC_WORK} bits over all "
            f"{count} permutation products"
        )
    cols = [tuple(p ** (a - lo) * q ** (hi - a) for p, q in pairs) for a in alpha]
    total = sum(
        math.prod(map(tuple.__getitem__, cols, perm))
        for perm in itertools.permutations(range(m))
    )
    return Fraction(total, math.prod(p**-lo * q**hi for p, q in pairs))


@dataclass(frozen=True)
class PropositionCounterexample:
    """A randomly drawn instance violating the sum comparison."""

    trial: int
    instance: MajorizationInstance
    kind: str  # "sum_domination" or "strictness"


def _trial_rng(seed: int, trial: int) -> random.Random:
    # Seeding with a string hashes all of it deterministically, so each
    # trial's stream depends only on (seed, trial), never on the trials
    # drawn before it.
    return random.Random(f"{seed}:{trial}")


def _draw(rng: random.Random, n_max: int, value_bound: int) -> tuple[Pairs, Pairs]:
    """Sorted (p, q) pairs for x and y, 1 <= p, q <= value_bound."""
    n = rng.randint(1, n_max)

    def side() -> Pairs:
        entries = [
            (rng.randint(1, value_bound), rng.randint(1, value_bound))
            for _ in range(n)
        ]
        entries.sort(key=_BY_VALUE, reverse=True)
        return entries

    return side(), side()


def _instance(xs: Pairs, ys: Pairs) -> MajorizationInstance:
    return MajorizationInstance(
        tuple(Fraction(p, q) for p, q in xs), tuple(Fraction(p, q) for p, q in ys)
    )


def random_instance(rng: random.Random, n_max: int, value_bound: int) -> MajorizationInstance:
    """Draw an instance with sorted entries p/q, 1 <= p, q <= value_bound."""
    return _instance(*_draw(rng, n_max, value_bound))


def brute_force_prop_search(
    n_max: int,
    trials: int,
    value_bound: int,
    seed: int,
    require_hypotheses: bool = True,
) -> Optional[PropositionCounterexample]:
    """Search random instances for a violation of the sum comparison.

    With ``require_hypotheses`` on (the default), instances failing prefix
    domination are skipped and no violation should ever be found. Turning
    the filter off is a diagnostic mode: unconstrained instances violate
    the comparison easily, which confirms the filter is load-bearing.
    Results are a pure function of the arguments; each trial derives its
    own generator from (seed, trial). When ``n_max`` times the bit length
    of ``value_bound`` exceeds MAX_FUZZ_WORK, CapExceeded is raised before
    any trial is drawn.
    """
    if n_max * value_bound.bit_length() > MAX_FUZZ_WORK:
        raise CapExceeded(
            f"fuzz instances are capped at n_max times the bound's bit length "
            f"<= {MAX_FUZZ_WORK}, got {n_max} * {value_bound.bit_length()}"
        )
    for trial in range(trials):
        xs, ys = _draw(_trial_rng(seed, trial), n_max, value_bound)
        if require_hypotheses and not _dominated(xs, ys):
            continue
        dominates, equal = _sum_signs(xs, ys)
        if not dominates:
            kind = "sum_domination"
        elif equal and any(_cmp(a, b) for a, b in zip(xs, ys)):
            kind = "strictness"
        else:
            continue
        return PropositionCounterexample(trial, _instance(xs, ys), kind)
    return None
