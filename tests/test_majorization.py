"""Prefix-product domination, the proof's mechanical steps, and Muirhead.

The load-bearing fact (domination of every prefix product forces sum
domination, strict unless the sequences agree) is exercised here in three
ways: directly on pinned instances, through the seeded randomized
searcher that is expected to come up empty, and through the exact
integer-exponent Muirhead route on the multiplicative-to-additive bridge.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from efrac import (
    MajorizationInstance,
    MuirheadInstance,
    PropositionCounterexample,
    augment,
    brute_force_prop_search,
    check_hypotheses,
    majorizes,
    normalize_scale,
    random_instance,
    sum_dominates,
    symmetric_sum,
)
from efrac.errors import (
    CapExceeded,
    HypothesesViolated,
    InvalidInstance,
    LengthMismatch,
)
from efrac.majorization import (
    MAX_FUZZ_WORK,
    MAX_SYMMETRIC_BITS,
    MAX_SYMMETRIC_WORK,
    _trial_rng,
    prefix_dominates,
)
from tests.conftest import majorization_instances

F = Fraction


def inst(x, y):
    return MajorizationInstance(tuple(map(F, x)), tuple(map(F, y)))


class TestInstanceValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInstance):
            inst([F(1, 2), F(0)], [F(1, 2), F(1, 3)])

    def test_rejects_increasing(self):
        with pytest.raises(InvalidInstance):
            inst([F(1, 3), F(1, 2)], [F(1, 3), F(1, 4)])

    def test_rejects_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            inst([F(1, 2)], [F(1, 2), F(1, 3)])

    def test_rejects_empty(self):
        with pytest.raises(InvalidInstance):
            inst([], [])


class TestCheckHypotheses:
    def test_dominating_pair(self):
        assert check_hypotheses(
            inst([F(1, 2), F(1, 3), F(1, 7)], [F(1, 2), F(1, 3), F(1, 8)])
        )

    def test_failing_pair(self):
        # third prefix products: y gives 1/36, x gives 1/42; 1/36 > 1/42
        assert not check_hypotheses(
            inst([F(1, 2), F(1, 3), F(1, 7)], [F(1, 3), F(1, 3), F(1, 4)])
        )

    @given(majorization_instances())
    def test_equal_sequences_always_pass(self, m):
        assert check_hypotheses(MajorizationInstance(m.x, m.x))


class TestSumDominates:
    def test_strict(self):
        dominates, equal = sum_dominates(
            inst([F(1, 2), F(1, 3), F(1, 7)], [F(1, 2), F(1, 3), F(1, 8)])
        )
        assert (dominates, equal) == (True, False)

    def test_equal(self):
        assert sum_dominates(inst([F(1, 2)], [F(1, 2)])) == (True, True)

    def test_tail_instance_from_the_certificate_path(self):
        m = inst([F(1, 7), F(1, 43)], [F(1, 9), F(1, 42)])
        assert sum(m.x) == F(50, 301)
        assert sum(m.y) == F(17, 126)
        assert sum_dominates(m) == (True, False)


class TestAugment:
    def test_requires_hypotheses(self):
        with pytest.raises(HypothesesViolated):
            augment(inst([F(1, 2), F(1, 3), F(1, 7)], [F(1, 3), F(1, 3), F(1, 4)]))

    def test_reciprocal_example(self):
        out = augment(inst([F(1, 7), F(1, 43)], [F(1, 9), F(1, 42)]))
        assert out.x == (F(1, 7), F(1, 43), F(1, 54))
        assert out.y == (F(1, 9), F(1, 42), F(1, 43))

    def test_identity_example(self):
        out = augment(inst([F(1, 2)], [F(1, 2)]))
        assert out.x == (F(1, 2), F(1, 2))
        assert out.y == (F(1, 2), F(1, 2))

    def test_integer_example(self):
        out = augment(inst([F(3)], [F(2)]))
        assert out.x == (F(3), F(4, 3))
        assert out.y == (F(2), F(2))
        assert math.prod(out.x) == math.prod(out.y) == 4

    @given(majorization_instances())
    @settings(max_examples=300)
    def test_invariants_on_random_instances(self, m):
        if not check_hypotheses(m):
            with pytest.raises(HypothesesViolated):
                augment(m)
            return
        out = augment(m)
        assert out.x[:-1] == m.x and out.y[:-1] == m.y
        assert out.x[-1] <= m.x[-1] and out.y[-1] <= m.y[-1]
        assert out.x[-1] <= out.y[-1]
        assert math.prod(out.x) == math.prod(out.y)
        assert check_hypotheses(out)


class TestNormalizeScale:
    def test_integer_example(self):
        out = normalize_scale(inst([F(3), F(4, 3)], [F(2), F(2)]))
        assert out.x == (F(9, 4), F(1))
        assert out.y == (F(3, 2), F(3, 2))

    def test_reciprocal_example(self):
        out = normalize_scale(
            inst([F(1, 7), F(1, 43), F(1, 54)], [F(1, 9), F(1, 42), F(1, 43)])
        )
        assert out.x == (F(54, 7), F(54, 43), F(1))
        assert out.y == (F(6), F(9, 7), F(54, 43))

    def test_min_already_one_is_identity(self):
        m = inst([F(3), F(1)], [F(2), F(2)])
        out = normalize_scale(m)
        assert out.x == m.x and out.y == m.y

    @given(majorization_instances())
    @settings(max_examples=300)
    def test_preserves_hypotheses_and_sum_sign(self, m):
        out = normalize_scale(m)
        assert min(min(out.x), min(out.y)) == 1
        assert check_hypotheses(out) == check_hypotheses(m)
        before = sum(m.x) - sum(m.y)
        after = sum(out.x) - sum(out.y)
        assert (before > 0) == (after > 0) and (before == 0) == (after == 0)


class TestMajorizes:
    def test_textbook_pair(self):
        assert majorizes((2, 0), (1, 1))

    def test_three_entry_pair(self):
        assert majorizes((3, 1, 0), (2, 2, 0))

    def test_reversed_pair_fails(self):
        assert not majorizes((2, 2, 0), (3, 1, 0))

    def test_unequal_totals_fail(self):
        assert not majorizes((2, 1), (1, 1))

    def test_prefix_dominates_alone_ignores_totals(self):
        assert prefix_dominates((2, 1), (1, 1))
        assert not prefix_dominates((1, 1), (2, 1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            majorizes((2, 0), (1, 1, 0))


class TestSymmetricSum:
    def test_pair_of_ones(self):
        assert symmetric_sum((1, 1), (F(3), F(2))) == 12

    def test_square_against_constant(self):
        assert symmetric_sum((2, 0), (F(3), F(2))) == 13

    def test_all_zero_exponents_count_permutations(self):
        for m in (1, 2, 3, 4):
            values = tuple(F(i + 2, 3) for i in range(m))
            assert symmetric_sum((0,) * m, values) == math.factorial(m)

    def test_rational_values(self):
        # (1/2)^2 * 1 + (1/3)^2 * 1 twice over the two permutations
        assert symmetric_sum((2, 0), (F(1, 2), F(1, 3))) == F(13, 36)

    def test_width_cap(self):
        with pytest.raises(CapExceeded):
            symmetric_sum((1,) * 9, (F(1),) * 9)

    def test_bit_budget_is_checked_before_any_power(self):
        # one value 3/2 (2 bits) and exponent a: the bound is 2 * a + 1 bits
        a = (MAX_SYMMETRIC_BITS - 1) // 2
        assert symmetric_sum((a,), (F(3, 2),)) == F(3**a, 2**a)
        with pytest.raises(CapExceeded, match="bits"):
            symmetric_sum((a + 1,), (F(3, 2),))
        with pytest.raises(CapExceeded):
            symmetric_sum((10**12, 0), (F(3, 2), F(5)))

    def test_work_budget_counts_every_permutation(self):
        # eight values 3/2 and one exponent a: 8! products of at most
        # 8 * a * 2 bits each
        a = MAX_SYMMETRIC_WORK // (math.factorial(8) * 16)
        values = (F(3, 2),) * 8
        expected = math.factorial(8) * F(3**a, 2**a)
        assert symmetric_sum((a,) + (0,) * 7, values) == expected
        with pytest.raises(CapExceeded, match="permutation products"):
            symmetric_sum((a + 1,) + (0,) * 7, values)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            symmetric_sum((1, 1), (F(2),))

    def test_muirhead_instance_validation(self):
        with pytest.raises(InvalidInstance):
            MuirheadInstance((1, 2), (2, 1), (F(1), F(2)))
        with pytest.raises(LengthMismatch):
            MuirheadInstance((2, 1), (1,), (F(1), F(2)))


class TestMultiplicativeAdditiveBridge:
    """check_hypotheses on power sequences = majorizes on the exponents.

    For entries that are integer powers of one rational base > 1, prefix
    products compare exactly as prefix exponent sums, so the two notions
    must agree without any logarithm in sight.
    """

    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5),
    )
    def test_agreement(self, e_x, e_y):
        n = min(len(e_x), len(e_y))
        alpha = tuple(sorted(e_x[:n], reverse=True))
        alpha_prime = tuple(sorted(e_y[:n], reverse=True))
        base = F(3, 2)
        m = MajorizationInstance(
            tuple(base**e for e in alpha),
            tuple(base**e for e in alpha_prime),
        )
        assert check_hypotheses(m) == prefix_dominates(alpha, alpha_prime)

    def test_majorizes_adds_the_total_constraint(self):
        # equal totals turn prefix domination into full majorization
        assert prefix_dominates((3, 2), (2, 1)) and not majorizes((3, 2), (2, 1))
        assert majorizes((3, 1), (2, 2))


class TestBruteForceSearch:
    def test_no_counterexample_with_filter(self):
        assert brute_force_prop_search(4, 1500, 12, seed=11) is None

    def test_single_entry_case(self):
        assert brute_force_prop_search(1, 100, 5, seed=3) is None

    def test_deterministic_per_seed(self):
        a = brute_force_prop_search(5, 500, 30, seed=42, require_hypotheses=False)
        b = brute_force_prop_search(5, 500, 30, seed=42, require_hypotheses=False)
        assert a == b

    def test_filter_off_finds_violations(self):
        found = brute_force_prop_search(
            5, 10000, 5, seed=0, require_hypotheses=False
        )
        assert found is not None
        assert found.kind in ("sum_domination", "strictness")
        assert not check_hypotheses(found.instance)
        if found.kind == "sum_domination":
            assert sum(found.instance.x) < sum(found.instance.y)

    def test_work_budget_is_checked_before_any_trial(self):
        # 30 has 5 bits: n_max * 5 may reach the budget but not pass it
        n_max = MAX_FUZZ_WORK // 5
        assert brute_force_prop_search(n_max, 0, 30, seed=0) is None
        with pytest.raises(CapExceeded, match="fuzz instances"):
            brute_force_prop_search(n_max + 1, 0, 30, seed=0)
        with pytest.raises(CapExceeded, match="fuzz instances"):
            brute_force_prop_search(1, 10**9, 1 << MAX_FUZZ_WORK, seed=0)

    def test_trial_streams_are_independent_of_history(self):
        # drawing trial 7 alone gives the same instance as inside a run
        lone = random_instance(_trial_rng(9, 7), 5, 30)
        rng = _trial_rng(9, 7)
        again = random_instance(rng, 5, 30)
        assert lone == again


# --- the Fraction implementations the integer layer replaced ---------------
#
# Kept here as the oracle: every result of the integer layer must be == to
# theirs, counterexamples included.


def ref_random_instance(rng, n_max, value_bound):
    n = rng.randint(1, n_max)

    def draw():
        entries = [
            F(rng.randint(1, value_bound), rng.randint(1, value_bound))
            for _ in range(n)
        ]
        entries.sort(reverse=True)
        return tuple(entries)

    return MajorizationInstance(draw(), draw())


def ref_check_hypotheses(m):
    px = py = F(1)
    for xi, yi in zip(m.x, m.y):
        px *= xi
        py *= yi
        if py > px:
            return False
    return True


def ref_sum_dominates(m):
    sx = sum(m.x, F(0))
    sy = sum(m.y, F(0))
    return sx >= sy, sx == sy


def ref_brute_force_prop_search(
    n_max, trials, value_bound, seed, require_hypotheses=True
):
    for trial in range(trials):
        m = ref_random_instance(_trial_rng(seed, trial), n_max, value_bound)
        if require_hypotheses and not ref_check_hypotheses(m):
            continue
        dominates, equal = ref_sum_dominates(m)
        if not dominates:
            return PropositionCounterexample(trial, m, "sum_domination")
        if equal and m.x != m.y:
            return PropositionCounterexample(trial, m, "strictness")
    return None


def ref_augment(m):
    px = math.prod(m.x, start=F(1))
    py = math.prod(m.y, start=F(1))
    tail = min(m.x[-1], m.y[-1])
    return MajorizationInstance(m.x + (tail * py / px,), m.y + (tail,))


def ref_normalize_scale(m):
    scale = 1 / min(m.x[-1], m.y[-1])
    return MajorizationInstance(
        tuple(v * scale for v in m.x), tuple(v * scale for v in m.y)
    )


def ref_symmetric_sum(alpha, values):
    total = F(0)
    for perm in itertools.permutations(range(len(values))):
        prod = F(1)
        for i, j in enumerate(perm):
            prod *= F(values[j]) ** alpha[i]
        total += prod
    return total


class TestIntegerLayerAgainstFractionReference:
    @pytest.mark.parametrize("require_hypotheses", [True, False])
    def test_search_results_are_identical(self, require_hypotheses):
        found = 0
        for seed in range(100):
            for n_max in range(1, 6):
                for bound in (2, 5, 30):
                    args = (n_max, 25, bound, seed, require_hypotheses)
                    got = brute_force_prop_search(*args)
                    assert got == ref_brute_force_prop_search(*args), args
                    found += got is not None
        # the filter admits no counterexample; without it almost every
        # run finds one, so the comparison covers the returned instances
        assert found == 0 if require_hypotheses else found > 1400

    def test_instances_and_their_checks_are_identical(self):
        kept = 0
        for seed in range(100):
            for n_max in range(1, 6):
                for bound in (2, 5, 30):
                    rng, ref_rng = _trial_rng(seed, n_max), _trial_rng(seed, n_max)
                    m = random_instance(rng, n_max, bound)
                    assert m == ref_random_instance(ref_rng, n_max, bound)
                    assert rng.getstate() == ref_rng.getstate()
                    assert check_hypotheses(m) == ref_check_hypotheses(m), m
                    assert sum_dominates(m) == ref_sum_dominates(m), m
                    assert normalize_scale(m) == ref_normalize_scale(m), m
                    if ref_check_hypotheses(m):
                        kept += 1
                        assert augment(m) == ref_augment(m), m
        assert 300 < kept < 1500

    @pytest.mark.parametrize(
        "seed, trial, x, y",
        [
            (0, 1, "24/19,7/24", "21/19,3/4"),
            (1, 0, "7/2,19/17,25/27,3/4", "6,28/29,13/17,6/13"),
            (7, 3, "3/11,5/29,1/11", "22/9,1/3,3/25"),
        ],
    )
    def test_pinned_fuzz_counterexamples(self, seed, trial, x, y):
        # `ef fuzz` with its defaults: 1000 trials, n_max 5, bound 30
        found = brute_force_prop_search(5, 1000, 30, seed, require_hypotheses=False)
        expected = inst([F(v) for v in x.split(",")], [F(v) for v in y.split(",")])
        assert found == PropositionCounterexample(trial, expected, "sum_domination")
        assert brute_force_prop_search(5, 1000, 30, seed) is None

    def test_symmetric_sums_with_negative_exponents(self):
        rng = random.Random("symmetric")
        for _ in range(400):
            m = rng.randint(0, 4)
            alpha = [rng.randint(-3, 3) for _ in range(m)]
            values = [F(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in range(m)]
            assert symmetric_sum(alpha, values) == ref_symmetric_sum(alpha, values)
