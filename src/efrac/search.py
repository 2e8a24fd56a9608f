"""Greedy underapproximation and exhaustive optimality search.

The enumerator walks nondecreasing denominator tuples depth first. At a
node with prefix sum s, m open positions, and incumbent threshold t:

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
* at m = 2 (the closing step) write the gap target - s = p/q in lowest
  terms, x = pb - q and y = pc - q for the last two terms b <= c, and
  G = target - t > 0. Multiplying 1/b + 1/c < p/q by p*b*c*q shows it
  is equivalent to xy > q^2. With e = xy - q^2 >= 1 the leaf's deficit
  is D = p/q - p/(q + x) - p/(q + y) = p*e*x / (q(q + x)(q(q + x) + e)),
  which grows with e; the leaf reaches t exactly when D <= G.
  - For x <= q: e >= 1 and q + x <= 2q give
    D >= p*x / (2q^2(2q^2 + 1)), so D <= G forces
    x <= X = floor(2G*q^2(2q^2 + 1)/p).
  - For x > q: c >= b gives y >= x and e >= x^2 - q^2, so
    D >= p(x - q)/(q(q + x)) >= p/(q(2q + 1)). When X < q,
    G < p/(2q(2q^2 + 1)) <= p/(q(2q + 1)), so no such x reaches t.
  Hence, when X < q, the node takes hi = min(hi, floor((q + X)/p)).
  X shrinks as t grows, so it is recomputed with hi after each child.
  D <= G keeps ties. Without this step the level scans b over a range
  of about q values: after the unit-target prefix 2, 3, 7, 43, 1807
  that is 3,263,442 values with one admissible pair.

All of this runs on integers: the prefix sum, the incumbent, the gap and
the room t - s are carried as (numerator, denominator) pairs, lo and hi
come from floor division and leaves are compared by cross
multiplication. Only the gap at m = 2 is reduced to lowest terms.

Ties with the incumbent are collected, never discarded, so the search
reports the full optimum set. The tree is split at depth
d = min(2, k - 1): one pass lists the admissible prefixes of length d,
then each prefix's subtree is explored against the seed threshold with
local tightening only, in this process or in a worker. The prefix pass
reaches no leaf and never tightens, so the explored node set is a pure
function of the problem, and reports are byte-identical for any worker
count.

With no leaf to lift t, the prefix pass would lose prefixes at a node
with t <= s. The seed is therefore t = max(given threshold, g), where g
is the greedy k-term sum, and every node that pass expands has s < g:
at the root s = 0 < g; at depth 1, expanded only when d = 2 and so
k >= 3, s = 1/b1 <= 1/g1 < g, since b1 >= lo = g1, the greedy first
term, and g adds further positive terms to 1/g1.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Optional, Sequence, Union

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

DEFAULT_DEPTH_CAP = 8
DEFAULT_SPLIT_DEPTH = 2


@dataclass(frozen=True)
class SearchProblem:
    k: int
    target: Fraction
    incumbent_threshold: Fraction


@dataclass(frozen=True)
class OptimalityReport:
    problem: SearchProblem
    optima: tuple[DenominatorTuple, ...]
    optimum_sum: Optional[Fraction]
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


def _walk(
    k: int,
    target: Fraction,
    threshold: Fraction,
    stop: int,
    prefix: tuple[int, ...],
    prefix_sum: Fraction,
) -> tuple[
    Fraction, list[tuple[int, ...]], list[tuple[tuple[int, ...], Fraction]], int
]:
    """Explore the completions of a prefix, cutting every branch at depth stop.

    Returns (final local best, tuples attaining it inclusively of the
    starting threshold, admissible prefixes of length stop in order, nodes
    explored). The incumbent tightens only at leaves. Pure function of its
    arguments.
    """
    tn, td = target.numerator, target.denominator
    bn, bd = threshold.numerator, threshold.denominator
    cands: list[tuple[int, ...]] = []
    frontier: list[tuple[tuple[int, ...], Fraction]] = []
    nodes = 0

    def rec(pref: tuple[int, ...], sn: int, sd: int) -> None:
        # the prefix sum is sn/sd and the incumbent bn/bd, neither reduced
        nonlocal bn, bd, cands, nodes
        if len(pref) == stop:
            frontier.append((pref, Fraction(sn, sd)))
            return
        m = k - len(pref)
        gn, gd = tn * sd - sn * td, td * sd
        lo = max(pref[-1] if pref else 2, gd // gn + 1)
        if m == 2:
            g = gcd(gn, gd)
            p, q = gn // g, gd // g
            qq = q * q
        b = lo
        while True:
            room = bn * sd - sn * bd
            hi = lo if room <= 0 else (m * bd * sd) // room
            if m == 2:
                x_max = 2 * (tn * bd - bn * td) * qq * (2 * qq + 1) // (td * bd * p)
                if x_max < q:
                    hi = min(hi, (q + x_max) // p)
            if b > hi:
                return
            nodes += 1
            cn, cd = sn * b + sd, sd * b
            if m == 1:
                # Totals fall as b grows, so the smallest admissible term
                # is the only candidate that can match or beat the
                # incumbent.
                if cn * bd > bn * cd:
                    bn, bd = cn, cd
                    cands = [pref + (b,)]
                else:  # total == best by the bound derivation
                    cands.append(pref + (b,))
                return
            rec(pref + (b,), cn, cd)
            b += 1

    rec(prefix, prefix_sum.numerator, prefix_sum.denominator)
    return Fraction(bn, bd), cands, frontier, nodes


def best_tuples(
    k: int,
    target: Union[Fraction, int] = ONE,
    *,
    incumbent_threshold: Optional[Fraction] = None,
    workers: int = 1,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> OptimalityReport:
    """Enumerate every k-term tuple whose sum attains the maximum below target.

    Seeds the incumbent with the greedy tuple unless a threshold is given.
    A given threshold below the greedy sum seeds the search at the greedy
    sum instead, which leaves the optima unchanged; the report's problem
    keeps the given value.
    The optimum set is collected inclusively (sums equal to the threshold
    count) and returned in lexicographic order.
    """
    target = Fraction(target)
    if not 0 < target <= 1:
        raise ValueError(f"target must be in (0, 1], got {target}")
    if k < 0:
        raise ValueError(f"term count must be nonnegative, got {k}")
    if k > depth_cap:
        raise DepthCapExceeded(
            f"k = {k} exceeds the exhaustive-search depth cap {depth_cap}"
        )
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")

    greedy_sum = sum_reciprocals(greedy_underapprox(target, k))
    if incumbent_threshold is None:
        threshold = greedy_sum
    else:
        threshold = Fraction(incumbent_threshold)
    if not ZERO <= threshold < target:
        raise ValueError(
            f"incumbent threshold {format_rational(threshold)} must lie in "
            f"[0, {format_rational(target)})"
        )
    problem = SearchProblem(k, target, threshold)

    if k == 0:
        optima = (DenominatorTuple(()),) if threshold == ZERO else ()
        return OptimalityReport(
            problem,
            optima,
            ZERO if optima else None,
            0,
            bool(optima) and target == ONE,
        )

    seed = max(threshold, greedy_sum)
    depth = min(DEFAULT_SPLIT_DEPTH, k - 1)
    _, _, frontier, nodes = _walk(k, target, seed, depth, (), ZERO)
    prefixes = [pref for pref, _ in frontier]
    sums = [s for _, s in frontier]
    job = partial(_walk, k, target, seed, k)
    if workers == 1 or len(frontier) <= 1:
        results = list(map(job, prefixes, sums))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, prefixes, sums))

    all_cands: list[tuple[Fraction, tuple[int, ...]]] = []
    for local_best, local_cands, _, local_nodes in results:
        nodes += local_nodes
        all_cands.extend((local_best, cand) for cand in local_cands)

    if not all_cands:
        return OptimalityReport(problem, (), None, nodes, False)

    optimum = max(value for value, _ in all_cands)
    optima_terms = sorted(cand for value, cand in all_cands if value == optimum)
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


def verify_theorem(
    k: int,
    *,
    workers: int = 1,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> OptimalityReport:
    """Exhaustively confirm the k-term optimum is the Sylvester prefix.

    Seeds the search with the Sylvester sum itself (which the shortfall
    identity pins at 1 - 1/(running product)) and demands that the optimum
    set is exactly the Sylvester prefix at exactly that sum.
    """
    prefix = sylvester(k)
    threshold = ONE - Fraction(1, prefix.running_product)
    report = best_tuples(
        k,
        ONE,
        incumbent_threshold=threshold,
        workers=workers,
        depth_cap=depth_cap,
    )
    if report.optimum_sum != threshold:
        raise VerificationFailed(
            f"optimum sum {report.optimum_sum} differs from the Sylvester "
            f"sum {format_rational(threshold)} at k = {k}"
        )
    if not report.matches_sylvester:
        found = ", ".join(str(t) for t in report.optima)
        raise VerificationFailed(
            f"optimum set at k = {k} is not the Sylvester prefix: {found}"
        )
    return report
