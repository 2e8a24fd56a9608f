"""Greedy construction and the exhaustive branch-and-bound enumerator."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from efrac import (
    best_tuples,
    greedy_underapprox,
    sum_reciprocals,
    sylvester,
    validate_tuple,
    verify_theorem,
)
from efrac.errors import DepthCapExceeded
from efrac.search import DEFAULT_DEPTH_CAP, _floor_exceeds, _walk

F = Fraction


class TestGreedy:
    def test_unit_target_reproduces_the_sequence(self):
        assert greedy_underapprox(1, 4).terms == (2, 3, 7, 43)

    def test_half_target(self):
        assert greedy_underapprox(F(1, 2), 1).terms == (3,)

    def test_five_sixths(self):
        assert greedy_underapprox(F(5, 6), 2).terms == (2, 4)

    def test_zero_terms(self):
        assert greedy_underapprox(F(1, 2), 0).terms == ()

    def test_result_is_always_valid(self):
        tup = greedy_underapprox(F(7, 10), 5)
        validate_tuple(tup, F(7, 10))

    @given(
        st.fractions(min_value=F(1, 100), max_value=1),
        st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=200)
    def test_stays_strictly_below_any_target(self, target, k):
        tup = greedy_underapprox(target, k)
        assert sum_reciprocals(tup) < target
        assert all(tup[i] <= tup[i + 1] for i in range(len(tup) - 1))

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            greedy_underapprox(F(3, 2), 2)
        with pytest.raises(ValueError):
            greedy_underapprox(0, 2)
        with pytest.raises(ValueError):
            greedy_underapprox(F(1, 2), -1)


class TestBestTuples:
    def test_three_terms_unit_target(self):
        report = best_tuples(3)
        assert [t.terms for t in report.optima] == [(2, 3, 7)]
        assert report.optimum_sum == F(41, 42)
        assert report.matches_sylvester

    def test_single_term(self):
        report = best_tuples(1)
        assert [t.terms for t in report.optima] == [(2,)]
        assert report.optimum_sum == F(1, 2)

    def test_five_sixths_two_terms(self):
        report = best_tuples(2, F(5, 6))
        assert [t.terms for t in report.optima] == [(2, 4)]
        assert report.optimum_sum == F(3, 4)
        assert not report.matches_sylvester

    def test_tie_collection(self):
        # 7/10 with two terms: both 1/2+1/6 and 1/3+1/3 reach 2/3
        report = best_tuples(2, F(7, 10))
        assert [t.terms for t in report.optima] == [(2, 6), (3, 3)]
        assert report.optimum_sum == F(2, 3)

    def test_zero_terms(self):
        report = best_tuples(0)
        assert [t.terms for t in report.optima] == [()]
        assert report.optimum_sum == 0
        assert report.matches_sylvester

    def test_threshold_already_optimal_is_inclusive(self):
        report = best_tuples(2, F(7, 10), incumbent_threshold=F(2, 3))
        assert [t.terms for t in report.optima] == [(2, 6), (3, 3)]

    def test_unreachable_threshold_returns_empty(self):
        report = best_tuples(2, F(7, 10), incumbent_threshold=F(69, 100))
        assert report.optima == ()
        assert report.optimum_sum is None

    def test_depth_cap(self):
        with pytest.raises(DepthCapExceeded):
            best_tuples(DEFAULT_DEPTH_CAP + 1)
        report = best_tuples(5, depth_cap=5)
        assert report.matches_sylvester

    def test_input_validation(self):
        with pytest.raises(ValueError):
            best_tuples(-1)
        with pytest.raises(ValueError):
            best_tuples(2, F(3, 2))
        with pytest.raises(ValueError):
            best_tuples(2, workers=0)
        with pytest.raises(ValueError):
            best_tuples(2, incumbent_threshold=F(1))

    def test_greedy_never_beats_the_optimum(self):
        for target in (F(1), F(5, 6), F(7, 10), F(9, 11)):
            for k in (1, 2, 3):
                greedy_sum = sum_reciprocals(greedy_underapprox(target, k))
                report = best_tuples(k, target)
                assert greedy_sum <= report.optimum_sum
                if target == 1:
                    assert greedy_sum == report.optimum_sum

    def test_optimum_grows_with_k(self):
        sums = [best_tuples(k).optimum_sum for k in range(1, 6)]
        assert all(sums[i] < sums[i + 1] for i in range(4))

    @pytest.mark.parametrize(
        "k,target,nodes",
        [
            (3, F(7, 10), 13),
            (3, F(11, 13), 4),
            (4, F(7, 10), 29),
            (4, F(9, 13), 34),
            (4, F(12, 13), 30),
        ],
        ids=["3-7/10", "3-11/13", "4-7/10", "4-9/13", "4-12/13"],
    )
    def test_pinned_node_counts(self, k, target, nodes):
        # a change to the explored node set must show up here as a diff
        assert best_tuples(k, target).nodes_explored == nodes

    @pytest.mark.parametrize(
        "k,target,optima",
        [
            (4, F(1, 13), [(14, 183, 33307, 1109322943)]),
            (
                5,
                F(10, 17),
                [(2, 12, 205, 41821, 1748954221), (3, 4, 205, 41821, 1748954221)],
            ),
            (
                5,
                F(8, 19),
                [(3, 12, 229, 52213, 2726145157), (4, 6, 229, 52213, 2726145157)],
            ),
        ],
    )
    def test_small_gap_targets(self, k, target, optima):
        # without a cut above the leaves the penultimate level scans
        # about q values of b here, for seconds per call
        report = best_tuples(k, target)
        assert [t.terms for t in report.optima] == optima
        assert report.optimum_sum == sum_reciprocals(optima[0])

    @pytest.mark.parametrize(
        "target", [F(1), F(7, 10), F(5, 6), F(11, 13), F(99, 100)]
    )
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_weak_threshold_searches_from_the_greedy_sum(self, k, target):
        # a threshold below the greedy sum seeds the search at the greedy
        # sum, so only the reported problem differs from the default seed
        default = best_tuples(k, target)
        for threshold in (F(0), F(1, 4)):
            report = best_tuples(k, target, incumbent_threshold=threshold)
            assert report.problem.incumbent_threshold == threshold
            assert report.optima == default.optima
            assert report.optimum_sum == default.optimum_sum
            assert report.nodes_explored == default.nodes_explored


def brute_force_best(k, bmax, target=F(1)):
    """Bound-free enumeration over terms <= bmax; the completeness oracle."""
    best = None
    optima = []

    def rec(prev, depth, s, pref):
        nonlocal best, optima
        if depth == 0:
            if best is None or s > best:
                best = s
                optima = [pref]
            elif s == best:
                optima.append(pref)
            return
        for b in range(prev, bmax + 1):
            t = s + F(1, b)
            if t < target:
                rec(b, depth - 1, t, pref + (b,))

    rec(2, k, F(0), ())
    return best, sorted(optima)


def linear_reference(k, target):
    """Best k-term sums below target with the lo and hi bounds alone.

    Integer arithmetic, starting from threshold 0, where a node whose
    incumbent has not passed its prefix sum takes hi = lo; every level
    scans b linearly, with no deficit-floor cut. The oracle for that cut.
    """
    tn, td = target.numerator, target.denominator
    best = [0, 1]
    optima = []

    def rec(pref, sn, sd):
        m = k - len(pref)
        lo = max(pref[-1] if pref else 2, td * sd // (tn * sd - sn * td) + 1)
        b = lo
        while True:
            room = best[0] * sd - sn * best[1]
            hi = lo if room <= 0 else m * best[1] * sd // room
            if b > hi:
                return
            cn, cd = sn * b + sd, sd * b
            if m > 1:
                rec(pref + (b,), cn, cd)
            elif cn * best[1] > best[0] * cd:
                best[:] = [cn, cd]
                optima[:] = [pref + (b,)]
            elif cn * best[1] == best[0] * cd:
                optima.append(pref + (b,))
            b += 1

    rec((), 0, 1)
    return F(best[0], best[1]), sorted(optima)


def reduced_targets(max_q, low=F(0)):
    """Every reduced p/q in (0, 1] with q <= max_q and p/q >= low."""
    return [
        F(p, q)
        for q in range(1, max_q + 1)
        for p in range(1, q + 1)
        if math.gcd(p, q) == 1 and F(p, q) >= low
    ]


class TestClosingStep:
    """The deficit-floor cut, which replaced the m = 2 closing step, against
    the linear scan it replaces."""

    def check(self, k, target):
        report = best_tuples(k, target)
        expected_sum, expected_optima = linear_reference(k, target)
        assert report.optimum_sum == expected_sum, (k, target)
        assert [t.terms for t in report.optima] == expected_optima, (k, target)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_target_with_small_denominator(self, k):
        for target in reduced_targets(30):
            self.check(k, target)

    def test_benchmark_targets_at_four_terms(self):
        targets = [t for t in reduced_targets(13, low=F(1, 3)) if t < 1]
        assert len(targets) == 39
        for target in targets:
            self.check(4, target)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_unit_target(self, k):
        self.check(k, F(1))

    @pytest.mark.parametrize("j", [0, 1, 2, 3])
    def test_floor_never_exceeds_the_best_deficit(self, j):
        # Phi_j(q) must stay at or below the deficit of the best j-term
        # underapproximation of every gap with denominator q
        for gap in reduced_targets(12):
            best = linear_reference(j, gap)[0] if j else F(0)
            deficit = gap - best
            assert not _floor_exceeds(
                j, gap.denominator, 1, deficit.numerator, deficit.denominator
            ), (j, gap)


class TestCompleteness:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_bound_free_enumeration_unit_target(self, k):
        # 45 still holds the k = 4 optimum (2, 3, 7, 43) and keeps the
        # bound-free run near a second
        expected_sum, expected_optima = brute_force_best(k, 45 if k == 4 else 50)
        report = best_tuples(k)
        assert report.optimum_sum == expected_sum
        assert [t.terms for t in report.optima] == expected_optima

    @pytest.mark.parametrize(
        "target", [F(7, 10), F(5, 6), F(11, 13), F(99, 100)]
    )
    def test_matches_bound_free_enumeration_general_target(self, target):
        # the capped oracle can only vouch for optima inside its own
        # universe, so first pin that the report lives there
        report = best_tuples(3, target)
        assert all(t.terms[-1] <= 150 for t in report.optima)
        expected_sum, expected_optima = brute_force_best(3, 150, target)
        assert report.optimum_sum == expected_sum
        assert [t.terms for t in report.optima] == expected_optima

    @pytest.mark.parametrize(
        "target", [F(1), F(7, 10), F(5, 6), F(11, 13), F(99, 100)]
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_unseeded_walk_reseeds_itself(self, k, target):
        # from threshold 0 every node on the first descent has t <= s and
        # takes hi = lo: the greedy completion must lift the incumbent
        # and the walk must still reach the full optimum set
        report = best_tuples(k, target)
        best, cands, frontier, nodes = _walk(k, target, F(0), k, (), F(0))
        assert frontier == []
        assert best == report.optimum_sum
        assert sorted(cands) == [t.terms for t in report.optima]
        if target == 1:
            # the greedy seed is the optimum, so no subtree tightens and
            # the split changes nothing
            assert nodes == report.nodes_explored


class TestVerifyTheorem:
    @pytest.mark.parametrize(
        "k,expected",
        [
            (1, F(1, 2)),
            (2, F(5, 6)),
            (3, F(41, 42)),
            (4, F(1805, 1806)),
            (7, 1 - F(1, sylvester(7).running_product)),
            (8, 1 - F(1, sylvester(8).running_product)),
        ],
    )
    def test_unique_optimum_is_the_sequence_prefix(self, k, expected):
        report = verify_theorem(k)
        assert report.optimum_sum == expected
        assert report.matches_sylvester
        assert [t.terms for t in report.optima] == [sylvester(k).terms]

    def test_pinned_node_counts(self):
        nodes = [verify_theorem(k).nodes_explored for k in range(1, 9)]
        assert nodes == [1, 2, 6, 14, 41, 107, 308, 465]

    def test_depth_cap_comes_before_the_sylvester_prefix(self, monkeypatch):
        # the prefix grows doubly exponentially, so refusing a k above
        # the cap must not build it first
        built = []

        def recording(k):
            built.append(k)
            return sylvester(k)

        monkeypatch.setattr("efrac.search.sylvester", recording)
        cap = DEFAULT_DEPTH_CAP
        for k, depth_cap in ((cap + 1, cap), (40, cap), (65, cap), (6, 5)):
            with pytest.raises(DepthCapExceeded):
                verify_theorem(k, depth_cap=depth_cap)
        assert built == []
        assert verify_theorem(3).matches_sylvester
        assert set(built) == {3}

    def test_zero_terms(self):
        report = verify_theorem(0)
        assert report.optimum_sum == 0
        assert report.matches_sylvester


class TestDeterminismAcrossWorkers:
    def test_reports_agree_for_any_worker_count(self):
        seq = best_tuples(4)
        par = best_tuples(4, workers=4)
        assert seq == par

    def test_verify_agrees_for_any_worker_count(self):
        seq = verify_theorem(4)
        par = verify_theorem(4, workers=3)
        assert seq == par
        assert seq.nodes_explored == par.nodes_explored

    def test_eight_terms_agree_across_workers(self):
        assert verify_theorem(8) == verify_theorem(8, workers=2)
