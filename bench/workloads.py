"""The five benchmark workloads: seeded inputs, operations and checkers.

Each workload is a class with

* ``__init__(seed)``: build the fixed input list from the seed alone;
* ``run(tracer, item)``: one operation, which calls efrac's public
  functions (or ``python -m efrac``) and returns their outputs;
* ``check(item, out)``: None when the output is right, else a reason.
  Checkers use the benchmark's own integer arithmetic and enumeration,
  never a saved copy of an earlier output;
* ``failed(out)``: True for an operation that ended in an error;
* ``check_inputs()``: None when the input set itself is right;
* for the search workloads, ``nodes(out)``: nodes one operation explored.

Every ``tracer.call`` names the layer it enters, ``<module>.<what>``, so
the traced run can attribute self time to efrac's modules.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

import efrac
from efrac.cli import certificate_to_dict, render_report, run as cli_run

ROOT = Path(__file__).resolve().parent.parent

# --- the benchmark's own arithmetic ---------------------------------------


def own_sylvester(k: int) -> tuple[tuple[int, ...], int]:
    """First k Sylvester terms and their product, by term = product + 1."""
    terms = []
    prod = 1
    for _ in range(k):
        terms.append(prod + 1)
        prod *= prod + 1
    return tuple(terms), prod


def recip_sum(terms) -> tuple[int, int]:
    """1/b1 + ... + 1/bk as a reduced (numerator, denominator) pair."""
    den = math.prod(terms)
    num = sum(den // t for t in terms)
    g = math.gcd(num, den)
    return num // g, den // g


def ratio_text(num: int, den: int) -> str:
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def equals(frac: Fraction, num: int, den: int) -> bool:
    return frac.numerator * den == num * frac.denominator


def _next_sum(num: int, den: int, b: int) -> tuple[int, int]:
    num, den = num * b + den, den * b
    g = math.gcd(num, den)
    return num // g, den // g


def _lowest_term(num: int, den: int, p: int, q: int) -> int:
    """Smallest b with num/den + 1/b < p/q."""
    gap_num = p * den - q * num
    return (q * den) // gap_num + 1


def own_greedy(k: int, p: int, q: int) -> tuple[int, int]:
    """Sum of the greedy k-term underapproximation of p/q."""
    num, den = 0, 1
    for _ in range(k):
        num, den = _next_sum(num, den, _lowest_term(num, den, p, q))
    return num, den


def own_optima(
    k: int, p: int, q: int, floor: tuple[int, int]
) -> tuple[Optional[tuple[int, int]], list[tuple[int, ...]]]:
    """Every nondecreasing k-tuple with floor <= sum < p/q attaining the max.

    Depth-first over b1 <= ... <= bk. A term below the strict-gap bound
    overshoots the target; a term b with s + m/b below the incumbent
    cannot catch up, since every later term is at least b. At the last
    position only the smallest admissible term can be best. Returns
    (None, []) when some prefix already reaches the floor, which means a
    completion beats it; callers pass a floor that is an attained sum.
    """
    best = floor
    found: list[tuple[int, ...]] = []
    beaten = False

    def rec(prefix: tuple[int, ...], num: int, den: int) -> None:
        nonlocal best, found, beaten
        m = k - len(prefix)
        lo = max(prefix[-1] if prefix else 2, _lowest_term(num, den, p, q))
        room_num = best[0] * den - num * best[1]
        if room_num <= 0:
            beaten = True
            return
        room_den = best[1] * den
        b = lo
        while b <= (m * room_den) // room_num:
            nn, nd = _next_sum(num, den, b)
            if m == 1:
                if nn * best[1] > best[0] * nd:
                    best, found = (nn, nd), [prefix + (b,)]
                else:
                    found.append(prefix + (b,))
                return
            rec(prefix + (b,), nn, nd)
            if beaten:
                return
            b += 1
            room_num = best[0] * den - num * best[1]
            room_den = best[1] * den

    rec((), 0, 1)
    if beaten:
        return None, []
    return best, sorted(found)


def enumerate_tuples(k: int, bmax: int) -> list[tuple[int, ...]]:
    """All valid k-tuples with terms at most bmax, in lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], num: int, den: int) -> None:
        lo = max(prefix[-1] if prefix else 2, _lowest_term(num, den, 1, 1))
        for b in range(lo, bmax + 1):
            if len(prefix) + 1 == k:
                out.append(prefix + (b,))
            else:
                rec(prefix + (b,), *_next_sum(num, den, b))

    rec((), 0, 1)
    return out


@contextlib.contextmanager
def unlimited_int_text():
    """Lift CPython's int/str digit limit for the checker's own conversions."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class Workload:
    work: dict[str, int] = {}  # span name -> units of work in one call

    def failed(self, out) -> bool:
        """True for an operation that ended in an error; exceptions always do."""
        return False

    def check_inputs(self) -> Optional[str]:
        return None


# --- sweep ----------------------------------------------------------------

# Tuple counts for terms <= 60, pinned in tests/test_acceptance.py as
# SWEEP_COUNTS; the sweep's own enumeration must reproduce them.
SWEEP_COUNTS = {1: 59, 2: 1769, 3: 35925, 4: 555608}
SWEEP_BMAX = 60
SWEEP_K4_SAMPLE = 2000


class Sweep(Workload):
    """The `ef certify` path without rendering, over the criterion-3 set."""

    def __init__(self, seed: int) -> None:
        by_k = {k: enumerate_tuples(k, SWEEP_BMAX) for k in (1, 2, 3)}
        self.counts = {k: len(v) for k, v in by_k.items()}
        # Uniform k = 4 sample without listing the 555,608 tuples: each
        # valid 3-prefix owns a contiguous block of completions.
        starts, total = [], 0
        blocks = []
        for prefix in by_k[3]:
            num, den = recip_sum(prefix)
            lo = max(prefix[-1], _lowest_term(num, den, 1, 1))
            if lo <= SWEEP_BMAX:
                starts.append(total)
                blocks.append((prefix, lo))
                total += SWEEP_BMAX - lo + 1
        self.counts[4] = total
        picks = sorted(random.Random(f"sweep:{seed}").sample(range(total), SWEEP_K4_SAMPLE))
        k4 = []
        for index in picks:
            i = bisect.bisect_right(starts, index) - 1
            prefix, lo = blocks[i]
            k4.append(prefix + (lo + index - starts[i],))
        self.items = by_k[1] + by_k[2] + by_k[3] + k4
        self.prefixes = {k: own_sylvester(k) for k in range(5)}

    def run(self, tr, terms):
        tup = tr.call("rationals.validate_tuple", efrac.validate_tuple, terms)
        cert = tr.call("certificates.build", efrac.build_certificate, tup)
        result = tr.call("certificates.validate", efrac.validate_certificate, cert)
        prefix = tr.call("sylvester.prefix", efrac.sylvester, len(terms))
        return tup, cert, result, prefix

    def check_inputs(self) -> Optional[str]:
        if self.counts != SWEEP_COUNTS:
            return f"sweep enumeration counts {self.counts} != {SWEEP_COUNTS}"
        return None

    def check(self, terms, out) -> Optional[str]:
        tup, cert, result, prefix = out
        a_terms, a_prod = self.prefixes[len(terms)]
        if tuple(tup) != terms or tuple(cert.terms) != terms:
            return f"{terms}: tuple or certificate covers other terms"
        if not result.ok:
            return f"{terms}: certificate does not validate ({result.reason})"
        if tuple(prefix.terms) != a_terms or prefix.running_product != a_prod:
            return f"sylvester({len(terms)}) differs from the recurrence"
        is_prefix = terms == a_terms
        if cert.is_equality != is_prefix:
            return f"{terms}: is_equality is {cert.is_equality}"
        num, den = recip_sum(terms)
        lhs, rhs = num * a_prod, (a_prod - 1) * den
        if not ((lhs == rhs) if is_prefix else (lhs < rhs)):
            return f"{terms}: sum {num}/{den} against 1 - 1/{a_prod} is wrong"
        deficit = math.prod(terms) < a_prod
        if isinstance(cert.node, efrac.ProductDeficit) != deficit:
            return f"{terms}: ProductDeficit node present = {not deficit}"
        return None


# --- verify ---------------------------------------------------------------

VERIFY_K = 6
VERIFY_REPEATS = 3


class Verify(Workload):
    """verify_theorem(6), repeated: the unit-target exhaustive search."""

    def __init__(self, seed: int) -> None:
        self.items = [VERIFY_K] * VERIFY_REPEATS
        self.prefix, self.prod = own_sylvester(VERIFY_K)
        self.first_nodes: Optional[int] = None

    def run(self, tr, k):
        return tr.call("search.verify_theorem", efrac.verify_theorem, k)

    def nodes(self, out) -> int:
        return out.nodes_explored

    def check(self, k, report) -> Optional[str]:
        if self.first_nodes is None:
            self.first_nodes = report.nodes_explored
        if report.nodes_explored != self.first_nodes:
            return f"nodes_explored {report.nodes_explored} != {self.first_nodes} of the first repeat"
        if not equals(report.optimum_sum, self.prod - 1, self.prod):
            return f"optimum {report.optimum_sum} != 1 - 1/{self.prod}"
        optima = [tuple(t) for t in report.optima]
        if optima != [self.prefix]:
            return f"optimum set {optima} is not the Sylvester prefix alone"
        return None



# --- target ---------------------------------------------------------------

TARGET_K = 4
TARGET_MAX_DEN = 13
# Below 1/3 the targets 1/q alone take 0.6 s (1/7) to 8.6 s (1/13) each,
# so one round would last half a minute and a run would hold too few
# rounds for a steady median.
TARGET_MIN = Fraction(1, 3)


class Target(Workload):
    """best_tuples(4, p/q) for every reduced p/q in [1/3, 1) with q <= 13."""

    def __init__(self, seed: int) -> None:
        items = [
            (p, q)
            for q in range(2, TARGET_MAX_DEN + 1)
            for p in range(1, q)
            if math.gcd(p, q) == 1 and Fraction(p, q) >= TARGET_MIN
        ]
        random.Random(f"target:{seed}").shuffle(items)
        self.items = items

    def run(self, tr, pq):
        return tr.call(
            "search.best_tuples", efrac.best_tuples, TARGET_K, Fraction(*pq)
        )

    def nodes(self, out) -> int:
        return out.nodes_explored

    def check(self, pq, report) -> Optional[str]:
        p, q = pq
        optima = [tuple(t) for t in report.optima]
        if not optima or report.optimum_sum is None:
            return f"{p}/{q}: no optimum reported"
        for t in optima:
            if len(t) != TARGET_K or t[0] < 2 or list(t) != sorted(t):
                return f"{p}/{q}: optimum {t} is not a valid {TARGET_K}-tuple"
            num, den = recip_sum(t)
            if num * q >= p * den:
                return f"{p}/{q}: optimum {t} does not lie below the target"
            if not equals(report.optimum_sum, num, den):
                return f"{p}/{q}: {t} sums to {num}/{den}, not {report.optimum_sum}"
        g_num, g_den = own_greedy(TARGET_K, p, q)
        value = report.optimum_sum
        if value.numerator * g_den < g_num * value.denominator:
            return f"{p}/{q}: optimum {value} is below the greedy sum"
        best, found = own_optima(TARGET_K, p, q, (value.numerator, value.denominator))
        if best is None or not equals(value, *best):
            return f"{p}/{q}: a {TARGET_K}-tuple beats the reported optimum {value}"
        if found != optima:
            return f"{p}/{q}: optimum set {optima} != enumerated {found}"
        return None


# --- fuzz -----------------------------------------------------------------

FUZZ_OPS = 60
FUZZ_TRIALS = 200
FUZZ_INSTANCES = 40
FUZZ_N_MAX = 5
FUZZ_BOUND = 30


def _prefix_products_dominate(x, y) -> bool:
    px = py = Fraction(1)
    for xi, yi in zip(x, y):
        px, py = px * xi, py * yi
        if py > px:
            return False
    return True


def _nonincreasing(seq) -> bool:
    return all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


def _sign(v) -> int:
    return (v > 0) - (v < 0)


class Fuzz(Workload):
    """Filtered counterexample search plus augment / normalize_scale."""

    work = {"majorization.prop_search": FUZZ_TRIALS}  # trials per call

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"fuzz:{seed}")
        self.items = [
            (
                rng.randrange(2**32),
                tuple(
                    efrac.random_instance(rng, FUZZ_N_MAX, FUZZ_BOUND)
                    for _ in range(FUZZ_INSTANCES)
                ),
            )
            for _ in range(FUZZ_OPS)
        ]

    def run(self, tr, item):
        seed, instances = item
        found = tr.call(
            "majorization.prop_search",
            efrac.brute_force_prop_search,
            FUZZ_N_MAX,
            FUZZ_TRIALS,
            FUZZ_BOUND,
            seed,
        )
        rows = []
        for inst in instances:
            kept = tr.call("majorization.check_hypotheses", efrac.check_hypotheses, inst)
            if kept:
                aug = tr.call("majorization.augment", efrac.augment, inst)
                rows.append((True, aug, tr.call("majorization.normalize", efrac.normalize_scale, aug)))
            else:
                rows.append((False, None, None))
        return found, rows

    def check(self, item, out) -> Optional[str]:
        seed, instances = item
        found, rows = out
        if found is not None:
            x, y = found.instance.x, found.instance.y
            violates = sum(y) > sum(x) or (sum(x) == sum(y) and x != y)
            kind = "a genuine" if violates else "a non-violating"
            return f"seed {seed}: filtered search reported {kind} counterexample"
        for inst, (kept, aug, norm) in zip(instances, rows):
            if kept != _prefix_products_dominate(inst.x, inst.y):
                return f"check_hypotheses is {kept} on {inst}"
            if not kept:
                continue
            if aug.x[:-1] != inst.x or aug.y[:-1] != inst.y:
                return f"augment changed the original entries of {inst}"
            if not (_nonincreasing(aug.x) and _nonincreasing(aug.y)):
                return f"augment broke monotonicity on {inst}"
            if math.prod(aug.x) != math.prod(aug.y):
                return f"augment left unequal total products on {inst}"
            if min(min(norm.x), min(norm.y)) != 1:
                return f"normalize_scale did not make the smallest entry 1 on {inst}"
            if _sign(sum(norm.x) - sum(norm.y)) != _sign(sum(aug.x) - sum(aug.y)):
                return f"normalize_scale changed the sign of the sum difference on {inst}"
        return None


# --- cli ------------------------------------------------------------------

CLI_CERTIFY = 14
CLI_SUM = 2
CLI_SYLVESTER = 2
CLI_K = range(9, 15)  # k = 14 products have about 11,000 bits, under the limit
LIMIT_TERMS = 15  # fails today: CPython's 4300-digit int/str limit


def _deficit_tuple(rng: random.Random, k: int) -> tuple[int, ...]:
    """A Sylvester head, then a greedy tail with at least one term pushed up.

    Pushing a term up widens the remaining gap, so the greedy tail's
    terms come out smaller and the product falls short: a ProductDeficit.
    """
    a_terms, a_prod = own_sylvester(k)
    while True:
        terms = list(a_terms[: rng.randint(k - 4, k - 1)])
        num, den = recip_sum(terms)
        bump = len(terms)
        for i in range(bump, k):
            b = max(terms[-1], _lowest_term(num, den, 1, 1))
            b += rng.randint(1, 3) if i == bump else rng.choice((0, 0, 1))
            terms.append(b)
            num, den = _next_sum(num, den, b)
        if math.prod(terms) < a_prod:
            return tuple(terms)


def _split_tuple(rng: random.Random, k: int) -> tuple[int, ...]:
    """The Sylvester prefix with some terms raised, then sorted.

    Every term stays at least the Sylvester term at its position, so the
    sum stays below 1 and the product does not fall short: a Split.
    """
    terms = [a + rng.choice((0, 0, 1, 2, 3)) for a in own_sylvester(k)[0]]
    return tuple(sorted(terms))


class Cli(Workload):
    """Cold `python -m efrac` processes, one at a time."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"cli:{seed}")
        half = CLI_CERTIFY // 2
        certify = [_split_tuple(rng, rng.choice(CLI_K)) for _ in range(half)]
        certify += [_deficit_tuple(rng, rng.choice(CLI_K)) for _ in range(CLI_CERTIFY - half)]
        sums = [_deficit_tuple(rng, rng.choice(CLI_K)) for _ in range(CLI_SUM)]
        items = [("certify", t) for t in certify]
        items += [("sum", t) for t in sums]
        items += [("sylvester", rng.choice(CLI_K)) for _ in range(CLI_SYLVESTER)]
        items += [("sylvester", LIMIT_TERMS), ("certify", own_sylvester(LIMIT_TERMS)[0])]
        self.items = items

    @staticmethod
    def argv(item) -> list[str]:
        command, arg = item
        if command == "sylvester":
            return ["sylvester", "--terms", str(arg), "--format", "structured"]
        return [command, "--tuple", ",".join(map(str, arg)), "--format", "structured"]

    def run(self, tr, item):
        argv = [sys.executable, "-m", "efrac"] + self.argv(item)
        proc = tr.call("cli.process", _run_cold, argv)
        return proc.returncode, proc.stdout, proc.stderr

    def failed(self, out) -> bool:
        return out[0] != 0

    def check(self, item, out) -> Optional[str]:
        command, arg = item
        _code, stdout, _stderr = out
        try:
            report = json.loads(stdout)
            result = report["result"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"{command}: output is not a structured report ({exc})"
        with unlimited_int_text():
            return self._check_result(command, arg, result)

    @staticmethod
    def _check_result(command, arg, result) -> Optional[str]:
        if command == "sylvester":
            terms, prod = own_sylvester(arg)
            expected = {
                "k": arg,
                "terms": [str(t) for t in terms],
                "running_product": str(prod),
                "reciprocal_sum": ratio_text(prod - 1, prod),
                "shortfall": ratio_text(1, prod),
            }
        else:
            num, den = recip_sum(arg)
            expected = {"sum": ratio_text(num, den)}
            if command == "sum":
                expected["product"] = str(math.prod(arg))
                expected["shortfall"] = ratio_text(den - num, den)
            else:
                a_terms, a_prod = own_sylvester(len(arg))
                kind = "product_deficit" if math.prod(arg) < a_prod else "split"
                expected["sylvester_sum"] = ratio_text(a_prod - 1, a_prod)
                expected["valid"] = True
                expected["is_equality"] = arg == a_terms
                got_kind = result.get("certificate", {}).get("kind")
                if got_kind != kind:
                    return f"certify {len(arg)} terms: node kind {got_kind}, expected {kind}"
        for key, value in expected.items():
            if result.get(key) != value:
                return f"{command}: {key} is {str(result.get(key))[:60]}, expected {str(value)[:60]}"
        return None

    def probe_layers(self, tr) -> None:
        """Warm in-process calls behind the cold ones, for cli.run and cli.render."""
        for item in self.items:
            tr.new_op()
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                tr.call("cli.run", cli_run, self.argv(item))
            command, arg = item
            if command == "certify" and len(arg) < LIMIT_TERMS:
                cert = tr.call("certificates.build", efrac.build_certificate, arg)
                tr.call("cli.render", _render, cert)


def _run_cold(argv: list[str]) -> subprocess.CompletedProcess:
    # The round's environment (set by run.py) already points PYTHONPATH at src.
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)


def _render(cert) -> str:
    return render_report(certificate_to_dict(cert))


WORKLOADS = {
    "sweep": Sweep,
    "verify": Verify,
    "target": Target,
    "fuzz": Fuzz,
    "cli": Cli,
}
