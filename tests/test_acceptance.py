"""Acceptance suite: one test per criterion, exact tolerances throughout.

Every numeric expectation here is an exact rational or integer pinned in
the source; nothing is compared approximately. Run with ``pytest -v`` to
get one pass/fail line per criterion.
"""

import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product as iproduct

from efrac import (
    augment,
    brute_force_prop_search,
    build_certificate,
    check_hypotheses,
    majorizes,
    normalize_scale,
    product,
    quick_strict_check,
    shortfall_identity_check,
    sum_reciprocals,
    sylvester,
    symmetric_sum,
    validate_certificate,
)
from efrac.majorization import _trial_rng, random_instance

F = Fraction

EXPECTED_OPTIMA = {
    1: "1/2",
    2: "5/6",
    3: "41/42",
    4: "1805/1806",
    5: "3263441/3263442",
}

# full-sweep tuple counts for k terms, all at most 60, reciprocal sum
# below 1; pinned from two independent enumerations (plain filter loop
# and bound-jumping loop) that agreed
SWEEP_COUNTS = {1: 59, 2: 1769, 3: 35925, 4: 555608}


def run_cli(*args):
    ef = shutil.which("ef")
    argv = ([ef] if ef else [sys.executable, "-m", "efrac"]) + list(args)
    return subprocess.run(argv, capture_output=True, text=True)


def test_criterion_1_search_confirms_unique_optima():
    """verify --terms k, k = 1..5: exact optimum sums, unique optimum."""
    for k in range(1, 6):
        budget = 10.0 if k == 5 else 1.0
        start = time.monotonic()
        proc = run_cli("verify", "--terms", str(k))
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == f"optimum {EXPECTED_OPTIMA[k]}"
        assert lines[1] == "unique optimum = sylvester prefix"
        assert elapsed < budget, f"k={k} took {elapsed:.2f}s"


def test_criterion_2_shortfall_identity_and_squared_recurrence():
    for k in range(13):
        lhs, rhs, equal = shortfall_identity_check(k)
        assert equal and lhs == rhs
        assert rhs == 1 - F(1, sylvester(k).running_product)
    terms = sylvester(12).terms
    for k in range(1, 12):
        assert terms[k] == terms[k - 1] ** 2 - terms[k - 1] + 1


def test_criterion_3_certificate_sweep_is_sound_and_complete():
    """Every valid tuple with k <= 4 and terms <= 60, no sampling."""
    start = time.monotonic()
    bounds = {k: 1 - F(1, sylvester(k).running_product) for k in range(1, 5)}
    prefixes = {k: sylvester(k).terms for k in range(1, 5)}
    counts = {k: 0 for k in range(1, 5)}
    equality_hits = {k: [] for k in range(1, 5)}

    def visit(terms, total, k):
        counts[k] += 1
        cert = build_certificate(terms)
        result = validate_certificate(cert)
        assert result.ok, (terms, result.reason)
        assert total <= bounds[k], terms
        if cert.is_equality:
            equality_hits[k].append(terms)
            assert total == bounds[k], terms
        else:
            assert total < bounds[k], terms

    def rec(prev, depth, s, terms, k):
        gap = 1 - s
        lo = max(prev, gap.denominator // gap.numerator + 1)
        for b in range(lo, 61):
            if depth == 1:
                visit(terms + (b,), s + F(1, b), k)
            else:
                rec(b, depth - 1, s + F(1, b), terms + (b,), k)

    for k in range(1, 5):
        rec(2, k, F(0), (), k)

    assert counts == SWEEP_COUNTS
    assert equality_hits == {k: [prefixes[k]] for k in range(1, 5)}
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"


def test_criterion_4_randomized_search_finds_no_counterexample():
    for seed in (0, 1):
        assert brute_force_prop_search(5, 10**4, 30, seed) is None
    # determinism per seed: the sampled instance stream is a pure
    # function of (seed, trial), independent of any draw history
    first = [random_instance(_trial_rng(0, t), 5, 30) for t in range(200)]
    second = [random_instance(_trial_rng(0, t), 5, 30) for t in range(200)]
    assert first == second


def test_criterion_5_augmentation_and_scaling_invariants():
    kept = 0
    trial = 0
    while kept < 1000:
        inst = random_instance(_trial_rng(2024, trial), 5, 30)
        trial += 1
        if not check_hypotheses(inst):
            continue
        kept += 1

        out = augment(inst)
        assert out.x[:-1] == inst.x and out.y[:-1] == inst.y
        assert all(out.x[i] >= out.x[i + 1] for i in range(inst.n))
        assert all(out.y[i] >= out.y[i + 1] for i in range(inst.n))
        assert out.x[-1] <= out.y[-1]
        px = py = F(1)
        for xi, yi in zip(out.x, out.y):
            px *= xi
            py *= yi
        assert px == py

        scaled = normalize_scale(out)
        assert min(min(scaled.x), min(scaled.y)) == 1
        assert check_hypotheses(scaled) == check_hypotheses(out) is True
        sign_before = (sum(out.x) > sum(out.y)) - (sum(out.x) < sum(out.y))
        sign_after = (sum(scaled.x) > sum(scaled.y)) - (
            sum(scaled.x) < sum(scaled.y)
        )
        assert sign_before == sign_after


def test_criterion_6_muirhead_dominance_on_small_exponents():
    """All nonincreasing exponent vectors, length <= 3, entries in [0, 3]."""
    checked_pairs = 0
    for m in (1, 2, 3):
        vectors = [
            v
            for v in iproduct(range(3, -1, -1), repeat=m)
            if all(v[i] >= v[i + 1] for i in range(m - 1))
        ]
        rng = random.Random(f"acc6:{m}")
        value_vectors = [
            tuple(F(rng.randint(1, 10), rng.randint(1, 10)) for _ in range(m))
            for _ in range(200)
        ]
        for alpha in vectors:
            for alpha_prime in vectors:
                if not majorizes(alpha, alpha_prime):
                    continue
                checked_pairs += 1
                for values in value_vectors:
                    lhs = symmetric_sum(alpha, values)
                    rhs = symmetric_sum(alpha_prime, values)
                    assert lhs >= rhs, (alpha, alpha_prime, values)
    # 34 vectors majorize themselves; 17 more strict pairs exist
    assert checked_pairs == 51


def test_criterion_7_product_deficit_implies_strict_inequality():
    """10^4 random valid tuples whose product falls short: all strict."""
    rng = random.Random("deficit:0")
    a_products = {k: sylvester(k).running_product for k in (3, 4, 5, 6)}
    shortfall_bounds = {k: 1 - F(1, p) for k, p in a_products.items()}

    def draw():
        # jittered greedy walk: valid by construction, and its products
        # straddle the reference product so rejection stays cheap
        k = rng.choice((3, 4, 5, 6))
        terms = []
        s = F(0)
        prev = 2
        for _ in range(k):
            gap = 1 - s
            lo = max(prev, gap.denominator // gap.numerator + 1)
            b = lo + rng.choice((0, 0, 0, 1, 1, 2, 3))
            terms.append(b)
            s += F(1, b)
            prev = b
        return tuple(terms), s, k

    kept = 0
    attempts = 0
    while kept < 10**4:
        attempts += 1
        assert attempts < 10**6
        terms, total, k = draw()
        if product(terms) >= a_products[k]:
            continue
        kept += 1
        node = quick_strict_check(terms)
        assert node is not None
        assert node.b_product == product(terms)
        assert node.a_product == a_products[k]
        # the direct comparison the shortcut argument predicts
        assert total < shortfall_bounds[k], terms
        assert total == sum_reciprocals(terms)
