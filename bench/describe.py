"""Print the make-up of every workload's inputs for one seed, as JSON.

    PYTHONPATH=src python3 bench/describe.py [SEED]

Certificate shapes, recursion depths, the largest products, target ties
and the share of fuzz instances kept by the hypotheses filter; the
figures quoted in bench/README.md come from here. Untimed.
"""

import json
import math
import sys
from collections import Counter
from fractions import Fraction

import efrac

import workloads


def depth(cert) -> int:
    """Nested Split nodes above the Empty or ProductDeficit leaf."""
    return 1 + depth(cert.node.head) if isinstance(cert.node, efrac.Split) else 0


def shape(cert) -> str:
    return type(cert.node).__name__


def describe(seed: int) -> dict:
    sweep = workloads.Sweep(seed)
    shapes, depths = Counter(), Counter()
    for terms in sweep.items:
        cert = efrac.build_certificate(terms)
        shapes[shape(cert)] += 1
        depths[depth(cert)] += 1
    sweep_bits = max(
        max(math.prod(t), workloads.own_sylvester(len(t))[1]).bit_length() for t in sweep.items
    )

    target = workloads.Target(seed)
    ties = {}
    for p, q in sorted(target.items, key=lambda pq: Fraction(*pq)):
        ties[f"{p}/{q}"] = len(efrac.best_tuples(workloads.TARGET_K, Fraction(p, q)).optima)

    fuzz = workloads.Fuzz(seed)
    instances = [inst for _seed, group in fuzz.items for inst in group]
    kept = sum(efrac.check_hypotheses(inst) for inst in instances)

    cli = workloads.Cli(seed)
    cli_ops = []
    for command, arg in cli.items:
        row = {"command": command}
        if command == "sylvester":
            row["k"] = arg
            row["product_bits"] = workloads.own_sylvester(arg)[1].bit_length()
        else:
            row["k"] = len(arg)
            row["product_bits"] = math.prod(arg).bit_length()
            if command == "certify" and len(arg) < workloads.LIMIT_TERMS:
                cert = efrac.build_certificate(arg)
                row["shape"], row["depth"] = shape(cert), depth(cert)
        cli_ops.append(row)

    return {
        "seed": seed,
        "sweep": {
            "tuples_per_k": {k: sum(len(t) == k for t in sweep.items) for k in (1, 2, 3, 4)},
            "k4_population": sweep.counts[4],
            "top_shapes": dict(shapes),
            "split_depths": dict(sorted(depths.items())),
            "largest_product_bits": sweep_bits,
        },
        "target": {
            "targets": len(ties),
            "tied_targets": {t: n for t, n in ties.items() if n > 1},
        },
        "fuzz": {
            "instances": len(instances),
            "kept_by_hypotheses": kept,
            "kept_share": kept / len(instances),
        },
        "cli": cli_ops,
    }


if __name__ == "__main__":
    print(json.dumps(describe(int(sys.argv[1]) if len(sys.argv) > 1 else 1), indent=2))
