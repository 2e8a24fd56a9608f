"""One round of one workload in a fresh process; prints one JSON line.

    python3 bench/round.py WORKLOAD SEED [SPANS_PATH | --setup-only]

The parent (run.py) spawns this script once per round, so every round
starts cold: the interpreter, ``import efrac`` and efrac's certificate
memo are all fresh. ``import efrac`` comes first and is timed alone. With
SPANS_PATH the round is traced and its spans are written there; with
--setup-only the process stops once the inputs are ready.
"""

import sys
import time

_import_start = time.perf_counter_ns()
import efrac  # noqa: E402

_import_ns = time.perf_counter_ns() - _import_start

import json  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import NullTracer, Tracer, self_times  # noqa: E402
from workloads import ROOT, WORKLOADS  # noqa: E402

MAX_PROBLEMS = 20


def _failure_kind(out) -> str:
    if isinstance(out, Exception):
        return f"{type(out).__name__}: {out}"[:120]
    return (out[2].splitlines() or ["exit %d" % out[0]])[0][:120]


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    mode = sys.argv[3] if len(sys.argv) > 3 else None
    spans_path = None if mode == "--setup-only" else mode
    if Path(efrac.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"efrac was imported from {efrac.__file__}, not from {ROOT / 'src'}")

    wl = WORKLOADS[name](seed)
    tr = Tracer() if spans_path else NullTracer()
    ready_ns = time.monotonic_ns()
    if mode == "--setup-only":
        print(json.dumps({"ready_ns": ready_ns, "import_ns": _import_ns}))
        return

    clock = time.perf_counter_ns
    op_ns: list[int] = []
    nodes = 0
    failures: Counter = Counter()
    problem = wl.check_inputs()
    problems = [problem] if problem else []
    for item in wl.items:
        tr.new_op()
        start = clock()
        try:
            out = tr.call(f"{name}.op", wl.run, tr, item)
        except Exception as exc:  # one failing operation must not end the round
            out = exc
        op_ns.append(clock() - start)
        if isinstance(out, Exception) or wl.failed(out):
            failures[_failure_kind(out)] += 1
            continue
        if hasattr(wl, "nodes"):
            nodes += wl.nodes(out)
        problem = wl.check(item, out)
        if problem is not None:
            problems.append(problem)

    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    result = {
        "ready_ns": ready_ns,
        "import_ns": _import_ns,
        "op_ns": op_ns,
        "failures": dict(failures),
        "problems": problems[:MAX_PROBLEMS],
        "peak_rss_kb": resource.getrusage(who).ru_maxrss,
        "nodes": nodes if hasattr(wl, "nodes") else None,
        "work": wl.work,
    }
    if spans_path:
        if hasattr(wl, "probe_layers"):
            wl.probe_layers(tr)
        tr.write(spans_path)
        result["layers"] = self_times(tr.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
