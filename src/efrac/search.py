"""Greedy underapproximation and exhaustive optimality search.

The enumerator walks nondecreasing denominator tuples depth first. At a
node with prefix sum s, m open positions, and incumbent t:

* validity forces the next term b to satisfy 1/b < target - s, so
  b >= floor(1/(target - s)) + 1 (the + 1 is exact even when the
  reciprocal gap is an integer, because the comparison is strict);
* every remaining term is at least b, so the completed total is at most
  s + m/b; any b > m/(t - s) therefore cannot reach the threshold and is
  discarded. The floor keeps the boundary case where all remaining terms
  are equal and the total lands exactly on the threshold.
* if t <= s, every completion beats the incumbent and the second bound
  is void, so the node takes hi = lo. The greedy pick at a node is
  exactly lo, and t <= s still holds below it, so this first descent is
  the greedy completion of the prefix; its m = 1 leaf lifts t above s,
  and hi is recomputed from the new t after each child returns. The node
  thus explores what it would after reseeding t with its greedy
  completion sum.
* at every node with m >= 2 and t > s (the deficit-floor cut) write the
  gap target - s = p/q in lowest terms and G = target - t > 0. A next term
  a leaves the child gap p'/q' = (pa - q)/(qa), unreduced, with
  j = m - 1 terms still to place; the child reaches t only if some
  j-term completion falls short of p'/q' by at most G. Let c be the
  child's first term and C = 2jq'/p'.
  - If c > C, the j terms sum to less than j/C = p'/(2q'), so the
    deficit exceeds p'/(2q').
  - If c <= C, the gap after c, (p'c - q')/(q'c), has numerator >= 1
    and denominator <= 2jq'^2/p', so the deficit is at least
    Phi_{j-1}(2jq'^2/p').
  Here Phi_0(Q) = 1/Q and Phi_i(Q) = min(1/(2Q), Phi_{i-1}(2iQ^2)) bound
  the deficit of any i-term underapproximation of a gap P/D with
  D <= Q, by the same split at 2iD/P: a first term above it leaves a
  deficit over P/(2D) >= 1/(2Q), one at or below it leaves a gap whose
  denominator is at most 2iD^2/P <= 2iQ^2. Each Phi_i is nonincreasing
  in Q, and reducing the child gap only lowers its Q, so the unreduced
  q' is safe, and so is rounding Q = 2jq'^2/p' up to its integer
  ceiling, which only weakens the cut. The node skips a iff
  p'/(2q') > G and Phi_{j-1}(ceil(2jq'^2/p')) > G; both are strict, so
  ties survive. (While t <= s the first condition cannot hold, since
  p'/q' < target - s <= G, which is why such a node skips the test.) The
  second condition says ceil(2jq'^2/p') <= N, the largest integer with
  Phi_{j-1}(N) > G, and N depends only on j and the incumbent. For
  integers Q >= 1 it is found by isqrt:
  - Phi_i(Q) = 1/Q_i, where Q_0 = Q and Q_{l+1} = 2(i - l) Q_l^2: Q_l >= 1
    gives Q_{l+1} >= 2 Q_l, so 1/(2 Q_l) >= 1/Q_{l+1} >= 1/Q_i and the
    recursive min is attained at its last level;
  - 1/Q_i > G = en/ed iff Q_i * en < ed iff Q_i <= T_0 = (ed - 1) // en;
  - for integers X, T >= 0, 2cX^2 <= T iff X^2 <= T // (2c) iff
    X <= isqrt(T // (2c)). The chain Q_{i-c+1} = 2c Q_{i-c}^2 for
    c = 1, ..., i thus gives Q_i <= T_0 iff Q_{i-1} <= T_1 iff ... iff
    Q <= T_i, where T_c = isqrt(T_{c-1} // (2c)).
  So N = T_{j-1}, and since N is an integer, ceil(2jq'^2/p') <= N iff
  2jq'^2 <= N p'. The walk computes N once per depth and incumbent, and
  drops it when a leaf raises the incumbent.
  The skipped a form one interval: p'/(2q') = p/(2q) - 1/(2a) grows
  with a, and 2jq'^2/p' = 2jq^2a^2/(pa - q) is convex for pa > q, so
  the second condition, 2jq'^2/p' <= N, holds on a sublevel interval of
  the convex function.
  A node therefore tests its b and its hi: if both are cut it returns,
  and if only b is, b jumps to the first uncut value, found by integer
  bisection. G shrinks as t grows, so this is redone with hi after each
  child.

All of this runs on integer gaps: a node carries p/q = target - s and the
walk one incumbent G = en/ed = target - t, both in lowest terms. The room
t - s = p/q - G has the sign of room = p*ed - q*en, hi = floor(m*q*ed/room),
and a leaf whose child gap is below G replaces G. N is one integer, and
every comparison is a cross multiplication.

Ties with the incumbent are collected, never discarded, so the search
reports the full optimum set. The search is one depth-first pass from
the root with one incumbent that tightens at every leaf, so the explored
node set is a pure function of the problem.

The incumbent starts at t = 0, so by the t <= s rule the first descent
from the root is the greedy tuple and its leaf sets t to the greedy k-term
sum g. Every optimum is at least g, which the search checks afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

from .errors import DepthCapExceeded, VerificationFailed
from .rationals import (
    ONE,
    ZERO,
    DenominatorTuple,
    format_rational,
    sum_reciprocals,
    validate_tuple,
)
from .sylvester import sylvester

# Set as the largest K whose cold `ef verify --terms K` stayed under 1 s.
# Measured side by side on two cores (CPython 3.11), K = 14 takes
# 0.22-0.24 s, K = 15 0.46-0.51 s and K = 16 1.1-1.3 s, so the rule now
# admits 15. The cap stays at 14 because moving it changes which inputs
# succeed. The rule is measured on target 1 only: a small target at the
# cap costs far more (the README's `search` section gives figures).
MAX_DEPTH = 14


@dataclass(frozen=True)
class SearchProblem:
    """incumbent_threshold is the greedy k-term sum: the walk's first incumbent."""

    k: int
    target: Fraction
    incumbent_threshold: Fraction


@dataclass(frozen=True)
class OptimalityReport:
    problem: SearchProblem
    optima: tuple[DenominatorTuple, ...]
    optimum_sum: Fraction
    nodes_explored: int
    matches_sylvester: bool


def greedy_underapprox(target: Union[Fraction, int], k: int) -> DenominatorTuple:
    """Take the largest unit fraction below the remaining gap, k times.

    The picks are strictly increasing, so the result is a valid tuple and
    its sum stays strictly below the target.
    """
    target = Fraction(target)
    if not 0 < target <= 1:
        raise ValueError(f"target must be in (0, 1], got {target}")
    if k < 0:
        raise ValueError(f"term count must be nonnegative, got {k}")
    remaining = target
    terms = []
    for _ in range(k):
        b = remaining.denominator // remaining.numerator + 1
        terms.append(b)
        remaining -= Fraction(1, b)
    return DenominatorTuple(tuple(terms))


def _floor_threshold(j: int, en: int, ed: int) -> int:
    """The largest integer N with Phi_{j-1}(N) > en/ed."""
    t = (ed - 1) // en
    for c in range(1, j):
        t = isqrt(t // (2 * c))
    return t


def _cut(p: int, q: int, a: int, j: int, en: int, ed: int, n: int) -> bool:
    """Whether every j-term completion of the gap p/q - 1/a falls short of
    it by more than en/ed, given n = _floor_threshold(j, en, ed)."""
    cn, cd = p * a - q, q * a
    return cn * ed > 2 * cd * en and 2 * j * cd * cd <= n * cn


def _walk(k: int, target: Fraction) -> tuple[Fraction, list[tuple[int, ...]], int]:
    """Explore every k-term tuple below target, depth first from the root.

    Returns (best sum, the tuples attaining it, nodes explored). The
    incumbent gap G starts at target (t = 0) and shrinks at every leaf that
    beats it. Pure function of its arguments.
    """
    en, ed = target.numerator, target.denominator
    cands: list[tuple[int, ...]] = []
    floors: dict[int, int] = {}  # m -> N for the current incumbent
    nodes = 0

    def rec(pref: tuple[int, ...], p: int, q: int) -> None:
        # the node's gap is p/q and the incumbent's G is en/ed, both reduced
        nonlocal en, ed, cands, nodes
        m = k - len(pref)
        lo = max(pref[-1] if pref else 2, q // p + 1)
        b = lo
        while True:
            room = p * ed - q * en
            hi = lo if room <= 0 else (m * q * ed) // room
            if b > hi:
                return
            if m > 1 and room > 0:
                n = floors.get(m)
                if n is None:
                    n = floors[m] = _floor_threshold(m - 1, en, ed)
                if _cut(p, q, b, m - 1, en, ed, n):
                    if _cut(p, q, hi, m - 1, en, ed, n):
                        return
                    # the cut values form one interval that holds b but
                    # not hi: bisect for its upper end
                    c = hi
                    while c - b > 1:
                        mid = (b + c) // 2
                        if _cut(p, q, mid, m - 1, en, ed, n):
                            b = mid
                        else:
                            c = mid
                    b = c
            nodes += 1
            cn, cd = p * b - q, q * b
            g = gcd(cn, cd)
            cn, cd = cn // g, cd // g
            if m == 1:
                # Totals fall as b grows, so the smallest admissible term
                # is the only candidate that can match or beat the
                # incumbent.
                if cn * ed < en * cd:
                    en, ed = cn, cd
                    cands = [pref + (b,)]
                    floors.clear()
                else:  # gap == G by the bound derivation
                    cands.append(pref + (b,))
                return
            rec(pref + (b,), cn, cd)
            b += 1

    rec((), en, ed)
    return target - Fraction(en, ed), cands, nodes


def best_tuples(k: int, target: Union[Fraction, int] = ONE) -> OptimalityReport:
    """Enumerate every k-term tuple whose sum attains the maximum below target.

    The walk's first incumbent is the greedy sum, which the report's problem
    records; an optimum below it fails verification. Ties are collected and
    the optimum set is returned in lexicographic order.
    """
    target = Fraction(target)
    if not 0 < target <= 1:
        raise ValueError(f"target must be in (0, 1], got {target}")
    if k < 0:
        raise ValueError(f"term count must be nonnegative, got {k}")
    if k > MAX_DEPTH:
        raise DepthCapExceeded(
            f"k = {k} exceeds the exhaustive-search depth cap {MAX_DEPTH}"
        )

    greedy_sum = sum_reciprocals(greedy_underapprox(target, k))
    problem = SearchProblem(k, target, greedy_sum)
    if k == 0:
        return OptimalityReport(
            problem, (DenominatorTuple(()),), ZERO, 0, target == ONE
        )

    optimum, cands, nodes = _walk(k, target)
    if optimum < greedy_sum:
        raise VerificationFailed(
            f"reported optimum {format_rational(optimum)} is below the greedy "
            f"sum {format_rational(greedy_sum)}"
        )
    optima_terms = sorted(cands)
    for cand in optima_terms:
        tup = validate_tuple(cand, target)
        if sum_reciprocals(tup) != optimum:
            raise VerificationFailed(
                f"reported optimum {format_rational(optimum)} is not the sum "
                f"of {tup}"
            )
    optima = tuple(DenominatorTuple(cand) for cand in optima_terms)
    matches = target == ONE and optima_terms == [sylvester(k).terms]
    return OptimalityReport(problem, optima, optimum, nodes, matches)


def verify_theorem(k: int) -> OptimalityReport:
    """Exhaustively confirm the k-term optimum is the Sylvester prefix.

    Searches below 1, then demands that the optimum sum is exactly
    1 - 1/(running product), as the shortfall identity pins it, and that
    the optimum set is exactly the Sylvester prefix.
    """
    report = best_tuples(k)
    bound = ONE - Fraction(1, sylvester(k).running_product)
    if report.optimum_sum != bound:
        raise VerificationFailed(
            f"optimum sum {format_rational(report.optimum_sum)} differs from "
            f"the Sylvester sum {format_rational(bound)} at k = {k}"
        )
    if not report.matches_sylvester:
        found = ", ".join(str(t) for t in report.optima)
        raise VerificationFailed(
            f"optimum set at k = {k} is not the Sylvester prefix: {found}"
        )
    return report
