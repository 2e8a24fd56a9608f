"""Run one efrac benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sweep, verify, target, fuzz, cli (see bench/README.md). The run
repeats whole rounds of the workload's fixed operation set, each round in
a fresh single-threaded process (bench/round.py), until S seconds have
passed and at least two rounds are done; extra processes that only set up
bring the set-up samples to seven. Every output is checked.

With --trace 0 the last stdout line is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, which alternates traced and untraced rounds of NAME (for the
tracing overhead) and then traces one round of every other workload, so
each layer is measured on the workload that exercises it.

The full record of a run, with its context (nproc, Python version, git
SHA, line count of src/efrac/*.py), goes to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("sweep", "verify", "target", "fuzz", "cli")
MIN_ROUNDS = 2
MIN_SETUPS = 7  # setup_s is the median of this many cold starts at least
ROUND_TIMEOUT_S = 150
# Stops at p99: beyond it the sweep's tail is host preemption and collector
# pauses, which moved p99.9 by 60% between runs of the same code.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0)

# per-layer metric -> (workload, span name, unit, scale from ns per call)
PER_CALL = {
    "rationals.validate_tuple_us": ("sweep", "rationals.validate_tuple", "us", 1e3),
    "sylvester.prefix_us": ("sweep", "sylvester.prefix", "us", 1e3),
    "certificates.build_us": ("sweep", "certificates.build", "us", 1e3),
    "certificates.validate_us": ("sweep", "certificates.validate", "us", 1e3),
    "majorization.trial_us": ("fuzz", "majorization.prop_search", "us", 1e3),
    "majorization.augment_us": ("fuzz", "majorization.augment", "us", 1e3),
    "majorization.normalize_us": ("fuzz", "majorization.normalize", "us", 1e3),
    "cli.run_ms": ("cli", "cli.run", "ms", 1e6),
    "cli.render_us": ("cli", "cli.render", "us", 1e3),
}


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, mode: Path | str | None = None) -> dict:
    """One child process; mode is a spans path, "--setup-only" or None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    argv = [sys.executable, str(BENCH / "round.py"), workload, str(seed)]
    if mode is not None:
        argv.append(str(mode))
    spawned = time.monotonic_ns()
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RoundFailed(
            f"{workload} round exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_ns"] = result["ready_ns"] - spawned
    if "op_ns" in result:
        result["wall_ns"] = sum(result["op_ns"])
    return result


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten of n samples beyond it;
    None (report the median) below forty samples."""
    if n < 40:
        return None
    return next(p for p in TAIL_LADDER if n * (100 - p) / 100 >= 10)


def quantile(samples: list[int], p: float) -> float:
    return statistics.quantiles(samples, n=10000, method="inclusive")[round(p * 100) - 1]


def end_to_end(rounds: list[dict], setups: list[int]) -> tuple[dict, dict]:
    ops = [ns for r in rounds for ns in r["op_ns"]]
    p = tail_percentile(MIN_ROUNDS * len(rounds[0]["op_ns"]))
    tail = statistics.median(ops) if p is None else quantile(ops, p)
    metrics = {
        "setup_s": (statistics.median(setups) / 1e9, "s"),
        "wall_s": (statistics.median(r["wall_ns"] for r in rounds) / 1e9, "s"),
        "op_p50_ms": (statistics.median(ops) / 1e6, "ms"),
        "op_tail_ms": (tail / 1e6, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in rounds) / 1024, "MB"),
    }
    tail_info = {"percentile": p if p is not None else 50.0, "samples": len(ops)}
    return metrics, tail_info


def layer_totals(rounds: list[dict], name: str) -> tuple[int, int]:
    count = sum(r["layers"].get(name, (0, 0))[0] for r in rounds)
    ns = sum(r["layers"].get(name, (0, 0))[1] for r in rounds)
    return count, ns


def per_layer(traced: dict[str, list[dict]], overhead_pct: float) -> dict:
    metrics = {}
    for metric, (workload, span, unit, scale) in PER_CALL.items():
        count, ns = layer_totals(traced[workload], span)
        work = traced[workload][0].get("work", {}).get(span, 1)
        metrics[metric] = (ns / (count * work) / scale, unit)
    nodes = busy_ns = 0
    for workload in ("verify", "target"):
        rounds = traced[workload]
        nodes += rounds[0]["nodes"]  # check_rounds requires it equal in every round
        busy_ns += statistics.median(
            sum(ns for name, (_c, ns) in r["layers"].items() if name.startswith("search."))
            for r in rounds
        )
    metrics["search.nodes"] = (nodes, "count")
    metrics["search.busy_s"] = (busy_ns / 1e9, "s")
    metrics["search.nodes_per_s"] = (nodes / (busy_ns / 1e9), "1/s")
    all_rounds = [r for rounds in traced.values() for r in rounds]
    metrics["cli.import_ms"] = (statistics.median(r["import_ns"] for r in all_rounds) / 1e6, "ms")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def check_rounds(rounds: list[dict]) -> list[str]:
    problems = [p for r in rounds for p in r["problems"]]
    if len({len(r["op_ns"]) for r in rounds}) > 1:
        problems.append("rounds attempted different numbers of operations")
    if len({json.dumps(r["failures"], sort_keys=True) for r in rounds}) > 1:
        problems.append("rounds failed on different operations")
    if len({r["nodes"] for r in rounds}) > 1:
        problems.append(f"search nodes differ across rounds: {[r['nodes'] for r in rounds]}")
    return problems


def context() -> dict:
    sha = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    files = sorted((ROOT / "src" / "efrac").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "src_efrac_py_lines": sum(f.read_bytes().count(b"\n") for f in files),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "efrac" / "__init__.py").is_file():
        print(f"error: no efrac sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    untraced: list[dict] = []
    traced: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    if args.trace:
        for old in OUT.glob("spans-*.jsonl"):
            old.unlink()

    def spans_file(workload: str) -> Path:
        return OUT / f"spans-{workload}-r{len(traced[workload])}.jsonl"

    start = time.monotonic()
    while len(untraced) < MIN_ROUNDS or time.monotonic() - start < args.seconds:
        untraced.append(run_round(args.workload, args.seed))
        if args.trace:
            spans = spans_file(args.workload)
            traced[args.workload].append(run_round(args.workload, args.seed, spans))
    if args.trace:
        for workload in WORKLOADS:
            if not traced[workload]:
                traced[workload].append(run_round(workload, args.seed, spans_file(workload)))

    setups = [r["setup_ns"] for r in untraced]
    while len(setups) < MIN_SETUPS:
        setups.append(run_round(args.workload, args.seed, "--setup-only")["setup_ns"])

    problems = check_rounds(untraced)
    for rounds in traced.values():
        problems += check_rounds(rounds)
    metrics, tail_info = end_to_end(untraced, setups)
    if args.trace:
        traced_wall = statistics.median(r["wall_ns"] for r in traced[args.workload])
        untraced_wall = statistics.median(r["wall_ns"] for r in untraced)
        metrics = per_layer(traced, (traced_wall / untraced_wall - 1) * 100)

    attempted = sum(len(r["op_ns"]) for r in untraced)
    failed = sum(sum(r["failures"].values()) for r in untraced)
    ctx = context()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "context": ctx,
        "rounds": len(untraced),
        "round_wall_s": [r["wall_ns"] / 1e9 for r in untraced],
        "setup_s_samples": [ns / 1e9 for ns in setups],
        "op_tail": tail_info,
        "failures": untraced[0]["failures"],
        "problems": problems[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        record["self_time"] = {
            workload: {
                name: dict(zip(("spans", "self_ns"), layer_totals(rounds, name)))
                for name in sorted(rounds[0]["layers"])
            }
            for workload, rounds in traced.items()
        }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"context {json.dumps(ctx, sort_keys=True)}")
    print(f"{args.workload}: {len(untraced)} rounds, {attempted} operations, {failed} failed")
    for kind, count in untraced[0]["failures"].items():
        print(f"  failure x{count} per round: {kind}")
    for problem in problems[:10]:
        print(f"  WRONG: {problem}")
    if not args.trace:
        print(f"  op_tail_ms is p{tail_info['percentile']} of {tail_info['samples']} operations")
    for workload, layers in record.get("self_time", {}).items():
        for name, row in layers.items():
            print(f"  self time {workload:6} {name:32} {row['self_ns'] / 1e9:10.4f} s over {row['spans']} spans")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
