#!/usr/bin/env python3
"""bsclab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (oracle-sweep, mc-cells or readme-session) from the root
of a bsclab checkout, against the package source under src/.  It repeats
whole rounds of the workload's operations until their timed total reaches
--seconds, checks every output, and prints one JSON object as the last line
of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (tracing off).  With
--trace 1 the run first measures untraced rounds for half the time, then
traced rounds, and reports the per-layer metrics of the traced rounds plus
the tracing overhead; the spans are written to .perfbench-out/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import workloads
from tracer import PER_LAYER, Tracer, derive, span_records

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPS = 5


def measure_setup(env: dict) -> float:
    """Median wall time from a fresh interpreter to `bsclab.cli` imported.

    One untimed import first byte-compiles the sources, a cost paid once per
    installation rather than per run.
    """
    cmd = [sys.executable, "-c", "import bsclab.cli"]
    subprocess.run(cmd, env=env, check=True, timeout=60)
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def wall(rnd) -> float:
    return sum(op.seconds for op in rnd.ops)


def run_rounds(workload, seconds: float, tracer, first_index: int = 0) -> list:
    """Whole rounds whose timed total comes nearest to `seconds` (at least one)."""
    rounds, busy = [], 0.0
    while not rounds or busy + 0.5 * busy / len(rounds) < seconds:
        rnd = workload.run_round(first_index + len(rounds), tracer)
        if tracer is not None:
            rnd.spans += span_records(tracer.take())
        workload.check(rnd)
        rnd.data = {}  # release the outputs, so peak memory does not grow with rounds
        if tracer is not None:
            tracer.take()  # drop spans of calls the checks made
        rounds.append(rnd)
        busy += wall(rnd)
    return rounds


def median_round(rounds) -> float:
    """Sum over a round's operations of each one's median time across rounds.

    Every round runs the same operations, so this is the wall time of a
    typical round; a slow spell of the machine that hits a few operations of
    one round moves it less than it moves the median of whole-round sums.
    """
    times: dict = {}
    for rnd in rounds:
        for op in rnd.ops:
            times.setdefault(op.label, []).append(op.seconds)
    return sum(statistics.median(v) for v in times.values())


def peak_rss_mib(workload_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "readme-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "bsclab", "cli.py")):
        print(f"perfbench: no bsclab sources under {SRC}; run from a bsclab checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("perfbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=SRC)
    setup_s = measure_setup(env)

    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    if cls is workloads.ReadmeSession:
        wl = cls(ROOT, os.path.join(OUT, f"session-{os.getpid()}"))
    else:
        wl = cls()
    try:
        wl.prepare(args.seed)
        if args.trace:
            plain = run_rounds(wl, args.seconds / 2, None)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_rounds(wl, args.seconds / 2, tracer, len(plain))
            finally:
                tracer.uninstall()
            rounds = plain + traced
        else:
            rounds = run_rounds(wl, args.seconds, None)
    finally:
        wl.close()

    ops = [op for rnd in rounds for op in rnd.ops]
    failed = [op for op in ops if not op.ok]
    unexpected = [op for op in failed if not op.known_fault]
    for i, rnd in enumerate(rounds):
        print(f"round {i}: {len(rnd.ops)} operations in {wall(rnd):.3f} s, "
              f"{sum(not op.ok for op in rnd.ops)} failed")
    for op in {op.label: op for op in failed}.values():
        kind = "known fault" if op.known_fault else "FAILED"
        print(f"{kind}: {op.label}: {op.detail}")

    if args.trace:
        per_round = []
        for rnd in traced:
            m = derive(rnd.spans, workloads.critical_rate)
            m.update(rnd.counts)
            per_round.append(m)
        values = {name: statistics.median(m[name] for m in per_round) for name, _ in PER_LAYER}
        values["trace.overhead_s"] = median_round(traced) - median_round(plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "metrics": metrics,
                       "rounds": [r.spans for r in traced]}, fh)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": median_round(rounds), "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib(args.workload), "unit": "MiB"},
        }
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
