"""Greedy construction and the exhaustive branch-and-bound enumerator."""

import dataclasses
import math
import random
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
from efrac import search
from efrac.cli import run
from efrac.errors import DepthCapExceeded, VerificationFailed
from efrac.search import MAX_DEPTH, _cut, _floor_threshold, _walk
from tests.conftest import int_str_limit, needs_int_str_limit

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

    def test_depth_cap(self):
        for k in (MAX_DEPTH + 1, 23, 40, 65):
            with pytest.raises(DepthCapExceeded):
                best_tuples(k)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            best_tuples(-1)
        with pytest.raises(ValueError):
            best_tuples(2, F(3, 2))

    def test_optimum_below_the_greedy_sum_fails(self, capsys, monkeypatch):
        # the walk's first leaf is the greedy tuple, so a walk that ends
        # below the greedy sum is broken and must not report an optimum
        monkeypatch.setattr("efrac.search._walk", lambda k, target: (F(0), [], 0))
        with pytest.raises(VerificationFailed):
            best_tuples(3, F(7, 10))
        code = run(["search", "--terms", "3", "--target", "7/10"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error:VerificationFailed:")

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
            # the integer ceiling of the floor's Q weakens one cut here
            (4, F(5, 8), 33),
            # an incumbent from an earlier first term cuts these
            (4, F(5, 11), 29),
            (3, F(9, 28), 12),
            # long first descents: a change to the start of the walk shows here
            (4, F(1, 13), 48),
            (5, F(10, 17), 76),
            (5, F(8, 19), 125),
            (5, F(5, 26), 234),
            # a deep general target: the final G's denominator has 15,385 bits
            (12, F(1, 13), 6208),
        ],
        ids=[
            "3-7/10", "3-11/13", "4-7/10", "4-9/13", "4-12/13", "4-5/8",
            "4-5/11", "3-9/28", "4-1/13", "5-10/17", "5-8/19", "5-5/26",
            "12-1/13",
        ],
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


def brute_force_best(k, bmax, target=F(1)):
    """Bound-free enumeration over terms <= bmax; the completeness oracle.

    Sums are unreduced integer pairs compared by cross multiplication.
    """
    tn, td = target.numerator, target.denominator
    best = None  # (numerator, denominator)
    optima = []

    def rec(prev, depth, sn, sd, pref):
        nonlocal best, optima
        if depth == 0:
            if best is None or sn * best[1] > best[0] * sd:
                best = (sn, sd)
                optima = [pref]
            elif sn * best[1] == best[0] * sd:
                optima.append(pref)
            return
        for b in range(prev, bmax + 1):
            cn, cd = sn * b + sd, sd * b
            if cn * td < tn * cd:
                rec(b, depth - 1, cn, cd, pref + (b,))

    rec(2, k, 0, 1, ())
    return (None if best is None else F(*best)), sorted(optima)


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


def phi(i, q):
    """The recursive deficit floor Phi_i(q) over Fractions."""
    if i == 0:
        return 1 / F(q)
    return min(1 / F(2 * q), phi(i - 1, 2 * i * q * q))


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
        # underapproximation of every gap with denominator q, so q lies
        # above the largest N with Phi_j(N) > deficit
        for gap in reduced_targets(12):
            best = linear_reference(j, gap)[0] if j else F(0)
            deficit = gap - best
            n = _floor_threshold(j + 1, deficit.numerator, deficit.denominator)
            assert gap.denominator > n, (j, gap)

    def test_closed_form_floor_against_the_recursive_min(self):
        # Phi_0(Q) = 1/Q and Phi_i(Q) = min(1/(2Q), Phi_{i-1}(2iQ^2)) over
        # Fractions; the threshold test on ceil(Q) may only be weaker, and
        # at an integer Q it must agree exactly
        rng = random.Random("floor")
        for _ in range(3000):
            i = rng.randint(0, 4)
            den = rng.choice((1, rng.randint(1, 50)))
            q = F(rng.randint(den, 60 * den), den)
            g = F(1, rng.randint(1, 10 ** rng.randint(1, 30))) * F(
                rng.randint(1, 9), rng.randint(1, 9)
            )
            g = rng.choice((g, g, phi(i, q)))  # ties must not count
            got = math.ceil(q) <= _floor_threshold(i + 1, g.numerator, g.denominator)
            expected = phi(i, q) > g
            if q.denominator == 1:
                assert got == expected, (i, q, g)
            elif got:
                assert expected, (i, q, g)

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_threshold_is_the_largest_n_above_g(self, j):
        # N = _floor_threshold(j, G) is the largest integer with
        # Phi_{j-1}(N) > G; at a tie G = Phi_{j-1}(Q) that is Q - 1
        for gap in reduced_targets(12):
            q = gap.denominator
            spread = [gap * r for r in (1, F(1, 2), F(1, q + 1), F(1, q**3))]
            spread.append(F(1, 10**12))
            ties = {Q: phi(j - 1, Q) for Q in (1, 2, q, q + 1, 7 * q)}
            for g in spread + list(ties.values()):
                n = _floor_threshold(j, g.numerator, g.denominator)
                assert n == 0 or phi(j - 1, n) > g, (j, gap, g)
                assert phi(j - 1, n + 1) <= g, (j, gap, g)
            for Q, g in ties.items():
                assert _floor_threshold(j, g.numerator, g.denominator) == Q - 1

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_cut_against_its_definition(self, j):
        # the cut skips a iff p'/(2q') > G and Phi_{j-1}(ceil(Q)) > G with
        # Q = 2jq'^2/p' on the unreduced child gap p'/q'; G at
        # Phi_{j-1}(ceil(Q)) and one step below it puts both sides of the
        # product test on its boundary
        for gap in reduced_targets(9):
            p, q = gap.numerator, gap.denominator
            for a in range(q // p + 1, q // p + 6):
                cn, cd = p * a - q, q * a
                child = F(cn, cd)
                Q = -(-2 * j * cd * cd // cn)
                for g in (phi(j - 1, Q), phi(j - 1, Q + 1), child / 3, child):
                    n = _floor_threshold(j, g.numerator, g.denominator)
                    got = _cut(p, q, a, j, g.numerator, g.denominator, n)
                    expected = child / 2 > g and phi(j - 1, Q) > g
                    assert got == expected, (j, gap, a, g)

    def test_pinned_call_counts(self, monkeypatch):
        # node counts alone miss a cut tested where it cannot fire: the
        # walk looks both helpers up as module globals, so count them there
        calls = {"_cut": 0, "_floor_threshold": 0}
        for name in calls:
            def counting(*args, _name=name, _f=getattr(search, name)):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(search, name, counting)
        verify_theorem(6)
        assert calls == {"_cut": 276, "_floor_threshold": 5}
        calls.update(dict.fromkeys(calls, 0))
        for target in reduced_targets(13, low=F(1, 3)):
            if target < 1:
                best_tuples(4, target)
        assert calls == {"_cut": 2326, "_floor_threshold": 120}


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
        "target", [F(7, 10), F(5, 6), F(11, 13), F(99, 100), F(9, 28), F(5, 11)]
    )
    def test_matches_bound_free_enumeration_general_target(self, target):
        # the capped oracle can only vouch for optima inside its own
        # universe, so first pin that the report lives there
        report = best_tuples(3, target)
        assert all(t.terms[-1] <= 250 for t in report.optima)
        expected_sum, expected_optima = brute_force_best(3, 250, target)
        assert report.optimum_sum == expected_sum
        assert [t.terms for t in report.optima] == expected_optima

    @pytest.mark.parametrize(
        "target", [F(1), F(7, 10), F(5, 6), F(11, 13), F(99, 100)]
    )
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_unseeded_walk_reseeds_itself(self, k, target):
        # from incumbent 0 every node on the first descent has t <= s and
        # takes hi = lo: the greedy completion must lift the incumbent
        # and the walk must still reach the linear scan's full optimum set
        best, cands, _ = _walk(k, target)
        expected_sum, expected_optima = linear_reference(k, target)
        assert best == expected_sum
        assert sorted(cands) == expected_optima


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
        nodes = [verify_theorem(k).nodes_explored for k in range(1, MAX_DEPTH + 1)]
        assert nodes == [
            1, 2, 6, 14, 41, 107, 308, 465, 840, 1541, 2409, 3819, 6455,
            15523,
        ]

    def test_depth_cap_comes_before_the_sylvester_prefix(self, monkeypatch):
        # the prefix grows doubly exponentially, so refusing a k above
        # the cap must not build it first
        built = []

        def recording(k):
            built.append(k)
            return sylvester(k)

        monkeypatch.setattr("efrac.search.sylvester", recording)
        for k in (MAX_DEPTH + 1, 23, 40, 65):
            with pytest.raises(DepthCapExceeded):
                verify_theorem(k)
        assert built == []
        assert verify_theorem(3).matches_sylvester
        assert set(built) == {3}

    def test_zero_terms(self):
        report = verify_theorem(0)
        assert report.optimum_sum == 0
        assert report.matches_sylvester

    @needs_int_str_limit
    def test_mismatch_message_survives_the_digit_limit(self, monkeypatch):
        # a wrong optimum sum past 4,300 digits must still end in
        # VerificationFailed, not in str()'s ValueError
        real = best_tuples(3)
        wrong = F(10**5000 - 1, 10**5000)

        def far_off(k):
            return dataclasses.replace(real, optimum_sum=wrong)

        monkeypatch.setattr("efrac.search.best_tuples", far_off)
        with int_str_limit(4300), pytest.raises(VerificationFailed):
            verify_theorem(3)

