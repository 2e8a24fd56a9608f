#!/usr/bin/env python3
"""Greedy picks against the exhaustive enumerator, for several targets.

For target 1 the greedy walk is provably optimal and unique, which the
branch-and-bound search confirms by exhaustion. Off the unit target the
greedy walk can be beaten, and optima need not be unique; the enumerator
collects every tie.
"""

import time
from fractions import Fraction

from efrac import best_tuples, format_rational, greedy_underapprox, sum_reciprocals


def main():
    print("=== unit target: greedy is optimal and unique ===")
    for k in range(1, 6):
        start = time.monotonic()
        report = best_tuples(k)
        elapsed = time.monotonic() - start
        greedy = greedy_underapprox(1, k)
        optima = " ".join(str(t) for t in report.optima)
        print(
            f"k={k}: optimum {format_rational(report.optimum_sum)} at {optima} "
            f"({report.nodes_explored} nodes, {elapsed * 1000:.1f} ms)"
        )
        assert report.matches_sylvester
        assert [t.terms for t in report.optima] == [greedy.terms]
    print("[OK] the greedy tuple was the unique optimum for every k")
    print()

    print("=== a target with a tie ===")
    report = best_tuples(2, Fraction(7, 10))
    print(
        f"target 7/10, k=2: optimum {format_rational(report.optimum_sum)} "
        f"attained by {[str(t) for t in report.optima]}"
    )
    assert [t.terms for t in report.optima] == [(2, 6), (3, 3)]
    print("[OK] both optima collected, reported in lexicographic order")
    print()

    print("=== a target where greedy loses ===")
    # greedily grabbing 1/3 leaves a gap of exactly 1/8, which the strict
    # rule must round up to 1/9; starting lower at 1/4 does better
    target = Fraction(11, 24)
    for k in (1, 2):
        greedy = greedy_underapprox(target, k)
        report = best_tuples(k, target)
        gsum = sum_reciprocals(greedy)
        print(
            f"k={k}: greedy {greedy} = {format_rational(gsum)}, "
            f"best {[str(t) for t in report.optima]} = "
            f"{format_rational(report.optimum_sum)}"
        )
        assert gsum <= report.optimum_sum
    assert sum_reciprocals(greedy_underapprox(target, 2)) < best_tuples(
        2, target
    ).optimum_sum
    print("[OK] greedy never beat the enumerator, and lost outright at k=2")


if __name__ == "__main__":
    main()
