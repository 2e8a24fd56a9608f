"""The ``ef`` command line: every capability behind one small binary.

Exit codes: 0 on success, 1 on invalid input (validation errors and
malformed flags), 2 on verification failure (a mathematical check that
must hold did not, which always indicates a bug). Errors are reported on
stderr as a single machine-parsable line ``error:<code>: message``.

Structured output is one JSON object ``{"command", "config", "result"}``
with keys sorted, so parsing a report and re-emitting it is
byte-identical. Rationals serialize as ``"p/q"`` strings and
arbitrary-precision integers (terms, products, symmetric sums) as decimal
strings, since either can overflow native numbers in most consumers;
bounded counters (k, ell, nodes, trials, seeds) stay native. The emitted
config carries only the settings that affect the mathematical result,
never execution details like the worker count, so reports from any
worker split compare equal byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from .certificates import (
    Empty,
    InequalityCertificate,
    ProductDeficit,
    Split,
    build_certificate,
    validate_certificate,
)
from .errors import ChainViolated, EfracError, ParseError, VerificationFailed
from .majorization import (
    MajorizationInstance,
    MuirheadInstance,
    brute_force_prop_search,
    check_hypotheses,
    majorizes,
    sum_dominates,
    symmetric_sum,
)
from .rationals import (
    ONE,
    format_rational,
    format_terms,
    parse_int_list,
    parse_rational,
    parse_rational_list,
    parse_terms,
    product,
    sum_reciprocals,
    validate_tuple,
)
from .search import (
    DEFAULT_DEPTH_CAP,
    OptimalityReport,
    best_tuples,
    verify_theorem,
)
from .sylvester import DEFAULT_TERM_CAP, sylvester

ENV_MAX_TERMS = "EF_MAX_TERMS"


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by the subcommands.

    ``max_sylvester_terms`` defaults to 64 and may be overridden by the
    ``EF_MAX_TERMS`` environment variable; an explicit flag wins over the
    environment.
    """

    max_sylvester_terms: int = DEFAULT_TERM_CAP
    max_search_depth: int = DEFAULT_DEPTH_CAP
    workers: int = 1
    output_format: str = "plain"
    output_path: Optional[str] = None
    seed: int = 0


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _nonneg_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {value}")
    return value


def _positive_int(text: str) -> int:
    value = _nonneg_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("plain", "structured"),
        default="plain",
        help="plain text for humans or one sorted-key JSON object",
    )
    common.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="write the structured report to PATH and a summary to stdout",
    )

    parser = _Parser(
        prog="ef",
        description="Exact arithmetic around best n-term unit-fraction "
        "underapproximations and the Sylvester sequence.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "sylvester", parents=[common], help="print the first K sequence terms"
    )
    p.add_argument("--terms", type=_nonneg_int, required=True, metavar="K")
    p.add_argument(
        "--max-terms",
        type=_nonneg_int,
        default=None,
        help=f"term cap (default {DEFAULT_TERM_CAP}, env {ENV_MAX_TERMS})",
    )

    p = sub.add_parser(
        "sum", parents=[common], help="validate a tuple and print its sum"
    )
    p.add_argument("--tuple", required=True, metavar="LIST", dest="terms_text")

    p = sub.add_parser(
        "certify",
        parents=[common],
        help="build and independently validate an optimality certificate",
    )
    p.add_argument("--tuple", required=True, metavar="LIST", dest="terms_text")

    p = sub.add_parser(
        "search",
        parents=[common],
        help="exhaustively enumerate the best K-term tuples below a target",
    )
    p.add_argument("--terms", type=_nonneg_int, required=True, metavar="K")
    p.add_argument("--target", default="1", metavar="P/Q")
    p.add_argument("--workers", type=_positive_int, default=1, metavar="N")
    p.add_argument(
        "--max-depth",
        type=_nonneg_int,
        default=None,
        help=f"search depth cap (default {DEFAULT_DEPTH_CAP})",
    )

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="confirm the K-term optimum is exactly the Sylvester prefix",
    )
    p.add_argument("--terms", type=_nonneg_int, required=True, metavar="K")
    p.add_argument("--workers", type=_positive_int, default=1, metavar="N")
    p.add_argument("--max-depth", type=_nonneg_int, default=None)

    p = sub.add_parser(
        "prop-check",
        parents=[common],
        help="check prefix-product domination and the sum comparison",
    )
    p.add_argument("--x", required=True, metavar="LIST")
    p.add_argument("--y", required=True, metavar="LIST")

    p = sub.add_parser(
        "muirhead",
        parents=[common],
        help="compare symmetric sums for two exponent vectors",
    )
    p.add_argument("--alpha", required=True, metavar="LIST")
    p.add_argument("--alpha-prime", required=True, metavar="LIST")
    p.add_argument("--values", required=True, metavar="LIST")

    p = sub.add_parser(
        "fuzz",
        parents=[common],
        help="randomized search for sum-comparison counterexamples",
    )
    p.add_argument("--trials", type=_nonneg_int, default=1000, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--n-max", type=_positive_int, default=5, metavar="M")
    p.add_argument("--bound", type=_positive_int, default=30, metavar="B")
    p.add_argument(
        "--no-filter",
        action="store_true",
        help="diagnostic mode: keep instances that fail the hypotheses",
    )

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    max_terms = DEFAULT_TERM_CAP
    env = os.environ.get(ENV_MAX_TERMS)
    if env is not None:
        if not env.isdigit():
            raise ParseError(
                f"{ENV_MAX_TERMS} must be a nonnegative integer, got {env!r}"
            )
        max_terms = int(env)
    if getattr(args, "max_terms", None) is not None:
        max_terms = args.max_terms
    max_depth = getattr(args, "max_depth", None)
    if max_depth is None:
        max_depth = DEFAULT_DEPTH_CAP
    return RunConfig(
        max_sylvester_terms=max_terms,
        max_search_depth=max_depth,
        workers=getattr(args, "workers", 1),
        output_format=args.format,
        output_path=args.output,
        seed=getattr(args, "seed", 0),
    )


def _config_dict(cfg: RunConfig, command: str) -> dict[str, Any]:
    out: dict[str, Any] = {
        "max_search_depth": cfg.max_search_depth,
        "max_sylvester_terms": cfg.max_sylvester_terms,
    }
    if command == "fuzz":
        out["seed"] = cfg.seed
    return out


def certificate_to_dict(cert: InequalityCertificate) -> dict[str, Any]:
    out: dict[str, Any] = {
        "is_equality": cert.is_equality,
        "terms": [str(t) for t in cert.terms],
    }
    node = cert.node
    if isinstance(node, Empty):
        out["kind"] = "empty"
    elif isinstance(node, ProductDeficit):
        out["kind"] = "product_deficit"
        out["b_product"] = str(node.b_product)
        out["a_product"] = str(node.a_product)
    elif isinstance(node, Split):
        out["kind"] = "split"
        out["ell"] = node.ell
        out["chain"] = [[str(b), str(a)] for b, a in node.chain]
        out["deficit_witness"] = (
            None
            if node.deficit_witness is None
            else [str(v) for v in node.deficit_witness]
        )
        out["tail_equality"] = node.tail_equality
        out["head"] = certificate_to_dict(node.head)
    else:  # pragma: no cover - the union above is closed
        raise TypeError(f"unknown node type {type(node).__name__}")
    return out


def render_report(report: dict[str, Any]) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _search_result(report: OptimalityReport) -> dict[str, Any]:
    return {
        "k": report.problem.k,
        "target": format_rational(report.problem.target),
        "incumbent_threshold": format_rational(report.problem.incumbent_threshold),
        "optimum_sum": (
            None
            if report.optimum_sum is None
            else format_rational(report.optimum_sum)
        ),
        "optima": [[str(t) for t in tup] for tup in report.optima],
        "nodes_explored": report.nodes_explored,
        "matches_sylvester": report.matches_sylvester,
    }


Handler = Callable[
    [RunConfig, argparse.Namespace],
    tuple[dict[str, Any], list[str], Optional[str]],
]


def _cmd_sylvester(cfg, args):
    prefix = sylvester(args.terms, cap=cfg.max_sylvester_terms)
    total = sum_reciprocals(prefix.terms)
    result = {
        "k": prefix.k,
        "terms": [str(t) for t in prefix.terms],
        "running_product": str(prefix.running_product),
        "reciprocal_sum": format_rational(total),
        "shortfall": format_rational(ONE - total),
    }
    return result, [format_terms(prefix.terms)], None


def _cmd_sum(cfg, args):
    tup = validate_tuple(parse_terms(args.terms_text))
    total = sum_reciprocals(tup)
    result = {
        "terms": [str(t) for t in tup],
        "sum": format_rational(total),
        "product": str(product(tup)),
        "shortfall": format_rational(ONE - total),
    }
    return result, [format_rational(total)], None


def _cmd_certify(cfg, args):
    tup = validate_tuple(parse_terms(args.terms_text))
    cert = build_certificate(tup)
    check = validate_certificate(cert)
    total = sum_reciprocals(tup)
    bound = ONE - Fraction(1, sylvester(len(tup)).running_product)
    result = {
        "certificate": certificate_to_dict(cert),
        "valid": check.ok,
        "reason": check.reason,
        "sum": format_rational(total),
        "sylvester_sum": format_rational(bound),
        "is_equality": cert.is_equality,
    }
    plain = [
        f"terms {format_terms(tup)}",
        f"sum {format_rational(total)}",
        f"sylvester sum {format_rational(bound)}",
        f"equality {'yes' if cert.is_equality else 'no'}",
        f"certificate {'valid' if check.ok else 'INVALID'}",
    ]
    failure = None if check.ok else f"certificate failed validation: {check.reason}"
    return result, plain, failure


def _cmd_search(cfg, args):
    target = parse_rational(args.target)
    report = best_tuples(
        args.terms, target, workers=cfg.workers, depth_cap=cfg.max_search_depth
    )
    plain = [
        "optimum "
        + (
            "none"
            if report.optimum_sum is None
            else format_rational(report.optimum_sum)
        )
    ]
    plain.extend(f"optima {tup}" for tup in report.optima)
    plain.append(f"nodes explored {report.nodes_explored}")
    return _search_result(report), plain, None


def _cmd_verify(cfg, args):
    report = verify_theorem(
        args.terms, workers=cfg.workers, depth_cap=cfg.max_search_depth
    )
    plain = [
        f"optimum {format_rational(report.optimum_sum)}",
        "unique optimum = sylvester prefix",
        f"nodes explored {report.nodes_explored}",
    ]
    return _search_result(report), plain, None


def _cmd_prop_check(cfg, args):
    inst = MajorizationInstance(
        parse_rational_list(args.x), parse_rational_list(args.y)
    )
    hypotheses = check_hypotheses(inst)
    dominates, equal = sum_dominates(inst)
    sum_x = sum(inst.x, Fraction(0))
    sum_y = sum(inst.y, Fraction(0))
    result = {
        "x": [format_rational(v) for v in inst.x],
        "y": [format_rational(v) for v in inst.y],
        "hypotheses": hypotheses,
        "sum_x": format_rational(sum_x),
        "sum_y": format_rational(sum_y),
        "dominates": dominates,
        "equal_sums": equal,
    }
    plain = [
        f"hypotheses {'true' if hypotheses else 'false'}",
        f"sum x {format_rational(sum_x)}",
        f"sum y {format_rational(sum_y)}",
        f"dominates {'true' if dominates else 'false'}",
        f"equal {'true' if equal else 'false'}",
    ]
    failure = None
    if hypotheses and not dominates:
        failure = "sum domination failed although the hypotheses hold"
    elif hypotheses and equal and inst.x != inst.y:
        failure = "sums agree on distinct sequences although the hypotheses hold"
    return result, plain, failure


def _cmd_muirhead(cfg, args):
    inst = MuirheadInstance(
        parse_int_list(args.alpha),
        parse_int_list(args.alpha_prime),
        parse_rational_list(args.values),
    )
    dominated = majorizes(inst.alpha, inst.alpha_prime)
    lhs = symmetric_sum(inst.alpha, inst.values)
    rhs = symmetric_sum(inst.alpha_prime, inst.values)
    result = {
        "alpha": [str(a) for a in inst.alpha],
        "alpha_prime": [str(a) for a in inst.alpha_prime],
        "values": [format_rational(v) for v in inst.values],
        "majorizes": dominated,
        "symmetric_sum_alpha": format_rational(lhs),
        "symmetric_sum_alpha_prime": format_rational(rhs),
        "dominates": lhs >= rhs,
    }
    plain = [
        f"majorizes {'true' if dominated else 'false'}",
        f"symmetric sum alpha {format_rational(lhs)}",
        f"symmetric sum alpha' {format_rational(rhs)}",
        f"dominates {'true' if lhs >= rhs else 'false'}",
    ]
    failure = None
    if dominated and lhs < rhs:
        failure = "majorization holds but the symmetric sums compare backwards"
    return result, plain, failure


def _cmd_fuzz(cfg, args):
    counterexample = brute_force_prop_search(
        args.n_max,
        args.trials,
        args.bound,
        cfg.seed,
        require_hypotheses=not args.no_filter,
    )
    ce_dict = None
    plain: list[str]
    if counterexample is None:
        plain = [
            f"no counterexample in {args.trials} trials "
            f"(n_max={args.n_max}, bound={args.bound}, seed={cfg.seed})"
        ]
    else:
        inst = counterexample.instance
        ce_dict = {
            "trial": counterexample.trial,
            "kind": counterexample.kind,
            "x": [format_rational(v) for v in inst.x],
            "y": [format_rational(v) for v in inst.y],
        }
        plain = [
            f"counterexample at trial {counterexample.trial} "
            f"({counterexample.kind})",
            "x " + ",".join(format_rational(v) for v in inst.x),
            "y " + ",".join(format_rational(v) for v in inst.y),
        ]
    result = {
        "trials": args.trials,
        "n_max": args.n_max,
        "value_bound": args.bound,
        "hypotheses_filter": not args.no_filter,
        "counterexample": ce_dict,
    }
    failure = None
    if counterexample is not None and not args.no_filter:
        failure = (
            f"trial {counterexample.trial} violates the sum comparison "
            "under satisfied hypotheses"
        )
    return result, plain, failure


_HANDLERS: dict[str, Handler] = {
    "sylvester": _cmd_sylvester,
    "sum": _cmd_sum,
    "certify": _cmd_certify,
    "search": _cmd_search,
    "verify": _cmd_verify,
    "prop-check": _cmd_prop_check,
    "muirhead": _cmd_muirhead,
    "fuzz": _cmd_fuzz,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error:Usage: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)

    try:
        cfg = _config_from_args(args)
        if cfg.max_search_depth < 0 or cfg.max_sylvester_terms < 0:
            raise ParseError("caps must be nonnegative")
        result, plain, failure = _HANDLERS[args.command](cfg, args)
    except EfracError as exc:
        print(f"error:{exc.code}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (VerificationFailed, ChainViolated)) else 1
    except ValueError as exc:
        print(f"error:InvalidInput: {exc}", file=sys.stderr)
        return 1

    report = {
        "command": args.command,
        "config": _config_dict(cfg, args.command),
        "result": result,
    }
    rendered = render_report(report)
    if cfg.output_path is not None:
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(
                f"error:WriteFailed: cannot write {cfg.output_path}: "
                f"{exc.strerror or exc}",
                file=sys.stderr,
            )
            return 1
        for line in plain:
            print(line)
    elif cfg.output_format == "structured":
        sys.stdout.write(rendered)
    else:
        for line in plain:
            print(line)

    if failure is not None:
        print(f"error:VerificationFailed: {failure}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
