"""Fast, untimed self-tests of the benchmark's checkers and tracer.

    PYTHONPATH=src python3 bench/selftest.py

Each workload's checker must accept a correct output and reject a
deliberately wrong one; the tracer's self-time arithmetic must match
hand-computed values.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import unittest
from fractions import Fraction

import efrac
from efrac.cli import run as cli_run

import run
import workloads
from tracer import NullTracer, Tracer, self_times


class SweepChecker(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.Sweep(seed=0)

    def outputs(self, terms):
        return self.wl.run(NullTracer(), terms)

    def test_counts_match_the_pinned_sweep(self):
        self.assertIsNone(self.wl.check_inputs())
        self.assertEqual(len(self.wl.items), 37753 + workloads.SWEEP_K4_SAMPLE)

    def test_accepts_the_prefix_and_others(self):
        for terms in [(2, 3, 7), (2, 3, 9), (3, 3, 4), (2, 4, 5, 21)]:
            self.assertIsNone(self.wl.check(terms, self.outputs(terms)), terms)

    def test_rejects_flipped_is_equality(self):
        for terms in [(2, 3, 7), (2, 3, 9)]:
            tup, cert, result, prefix = self.outputs(terms)
            flipped = dataclasses.replace(cert, is_equality=not cert.is_equality)
            self.assertIsNotNone(self.wl.check(terms, (tup, flipped, result, prefix)))

    def test_rejects_wrong_node_kind(self):
        terms = (2, 3, 9)  # product 54 > 42, so a Split
        tup, cert, result, prefix = self.outputs(terms)
        deficit = dataclasses.replace(cert, node=efrac.ProductDeficit(54, 42))
        self.assertIsNotNone(self.wl.check(terms, (tup, deficit, result, prefix)))


def fake_report(optima, optimum_sum, nodes=1):
    return efrac.OptimalityReport(
        problem=None,
        optima=tuple(efrac.DenominatorTuple(t) for t in optima),
        optimum_sum=optimum_sum,
        nodes_explored=nodes,
        matches_sylvester=False,
    )


class VerifyChecker(unittest.TestCase):
    def test_accepts_the_theorem_and_rejects_a_wrong_optimum(self):
        wl = workloads.Verify(seed=0)
        prefix, prod = workloads.own_sylvester(6)
        right = Fraction(prod - 1, prod)
        self.assertIsNone(wl.check(6, fake_report([prefix], right)))
        self.assertIsNotNone(wl.check(6, fake_report([prefix], right - Fraction(1, prod))))

    def test_rejects_a_second_optimum_and_changing_nodes(self):
        wl = workloads.Verify(seed=0)
        prefix, prod = workloads.own_sylvester(6)
        right = Fraction(prod - 1, prod)
        other = prefix[:5] + (prefix[5] + 1,)
        self.assertIsNotNone(wl.check(6, fake_report([prefix, other], right, nodes=5)))
        self.assertIsNone(wl.check(6, fake_report([prefix], right, nodes=5)))
        self.assertIsNotNone(wl.check(6, fake_report([prefix], right, nodes=6)))


class TargetChecker(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.Target(seed=0)
        self.report = efrac.best_tuples(4, Fraction(7, 10))

    def test_accepts_the_tie_at_seven_tenths(self):
        self.assertEqual(len(self.report.optima), 2)
        self.assertIsNone(self.wl.check((7, 10), self.report))

    def test_rejects_a_missing_tie(self):
        missing = dataclasses.replace(self.report, optima=self.report.optima[:1])
        self.assertIsNotNone(self.wl.check((7, 10), missing))

    def test_rejects_a_suboptimal_optimum(self):
        worse = (2, 6, 31, 932)
        report = fake_report([worse], Fraction(*workloads.recip_sum(worse)))
        self.assertIsNotNone(self.wl.check((7, 10), report))

    def test_own_enumeration_matches_brute_force(self):
        for p, q in [(1, 2), (2, 3), (3, 4), (5, 7)]:
            best, found = None, []
            for t in itertools.combinations_with_replacement(range(2, 80), 2):
                s = Fraction(1, t[0]) + Fraction(1, t[1])
                if s >= Fraction(p, q):
                    continue
                if best is None or s > best:
                    best, found = s, [t]
                elif s == best:
                    found.append(t)
            greedy = workloads.own_greedy(2, p, q)
            own_best, own_found = workloads.own_optima(2, p, q, greedy)
            self.assertEqual(Fraction(*own_best), best)
            self.assertEqual(own_found, sorted(found))


class FuzzChecker(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.Fuzz(seed=0)
        self.item = (self.wl.items[0][0] % 7, self.wl.items[0][1][:5])

    def test_accepts_real_outputs(self):
        self.assertIsNone(self.wl.check(self.item, self.wl.run(NullTracer(), self.item)))

    def test_rejects_a_counterexample_that_does_not_violate(self):
        inst = efrac.MajorizationInstance((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        bogus = efrac.PropositionCounterexample(0, inst, "sum_domination")
        _found, rows = self.wl.run(NullTracer(), self.item)
        problem = self.wl.check(self.item, (bogus, rows))
        self.assertIn("non-violating", problem)

    def test_rejects_a_broken_augment(self):
        found, rows = self.wl.run(NullTracer(), self.item)
        index = next(i for i, row in enumerate(rows) if row[0])
        kept, aug, norm = rows[index]
        bad = dataclasses.replace(aug, x=aug.x[:-1] + (aug.x[-1] * 2,))
        rows = rows[:index] + [(kept, bad, norm)] + rows[index + 1 :]
        self.assertIsNotNone(self.wl.check(self.item, (found, rows)))


class CliChecker(unittest.TestCase):
    def setUp(self):
        self.wl = workloads.Cli(seed=0)

    def structured(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_run(workloads.Cli.argv(item))
        return code, out.getvalue(), ""

    def test_accepts_real_reports(self):
        for item in [("certify", (2, 3, 9, 42)), ("certify", (3, 3, 4)), ("sum", (2, 3, 7)), ("sylvester", 5)]:
            self.assertIsNone(self.wl.check(item, self.structured(item)), item)

    def test_rejects_a_wrong_sum(self):
        for item in [("certify", (2, 3, 9, 42)), ("sum", (2, 3, 7))]:
            code, stdout, err = self.structured(item)
            report = json.loads(stdout)
            report["result"]["sum"] = "1/2"
            self.assertIsNotNone(self.wl.check(item, (code, json.dumps(report), err)))

    def test_generated_inputs_cover_both_shapes_and_the_limit(self):
        wl = workloads.Cli(seed=3)
        kinds = set()
        for command, arg in wl.items:
            if command == "certify" and len(arg) < workloads.LIMIT_TERMS:
                kinds.add(efrac.product(arg) < workloads.own_sylvester(len(arg))[1])
        self.assertEqual(kinds, {True, False})
        self.assertEqual(wl.items[-2], ("sylvester", workloads.LIMIT_TERMS))


class TracerArithmetic(unittest.TestCase):
    def test_nested_self_times(self):
        ticks = iter([0, 10, 20, 30, 40, 50, 70, 100])
        tr = Tracer(clock=lambda: next(ticks))
        root = tr.begin("root")  # 0 .. 100
        a = tr.begin("a")  # 10 .. 40
        g = tr.begin("g")  # 20 .. 30
        tr.end(g)
        tr.end(a)
        b = tr.begin("b")  # 50 .. 70
        tr.end(b)
        tr.end(root)
        self.assertEqual(
            self_times(tr.spans),
            {"root": (1, 50), "a": (1, 20), "g": (1, 10), "b": (1, 20)},
        )
        self.assertEqual([s[1] for s in tr.spans], [-1, 0, 1, 0])

    def test_overlapping_and_overrunning_children(self):
        spans = [
            [0, -1, 1, "root", 0, 100],
            [1, 0, 1, "x", 10, 40],
            [2, 0, 1, "x", 30, 60],
            [3, 0, 1, "y", 90, 130],
        ]
        times = self_times(spans)
        self.assertEqual(times["root"], (1, 100 - 50 - 10))
        self.assertEqual(times["x"], (2, 60))
        self.assertEqual(times["y"], (1, 40))

    def test_call_ends_the_span_when_the_layer_raises(self):
        tr = Tracer()
        with self.assertRaises(ZeroDivisionError):
            tr.call("boom", lambda: 1 // 0)
        self.assertEqual(len(tr.spans), 1)
        self.assertGreaterEqual(tr.spans[0][5], tr.spans[0][4])
        self.assertEqual(tr.begin("next"), 1)
        self.assertEqual(tr.spans[1][1], -1)


class TailPercentile(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(39))
        self.assertEqual(run.tail_percentile(40), 75.0)
        self.assertEqual(run.tail_percentile(1000), 99.0)
        self.assertEqual(run.tail_percentile(79506), 99.0)
        self.assertEqual(run.tail_percentile(62), 80.0)


if __name__ == "__main__":
    unittest.main()
