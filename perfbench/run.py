"""fdprop benchmark: closed-loop solves of one workload, or one traced solve.

    python3 perfbench/run.py --workload queens --seed 1 --seconds 40 --trace 0

With --trace 0 the run solves the seed's inputs back to back for
--seconds seconds (at least three solves) and reports the end-to-end
metrics, with times in reference CPU seconds (see probe.py); with
--trace 1 it makes one untraced and one traced solve of the seed's first
input and reports the per-layer metrics.  Both print a summary
followed, as the last line, by one JSON object with the keys correct,
attempted, failed and metrics.  --workload all runs every workload in
turn, each in its own process.  Metric names and units come from
BENCHMARK.json at the repository root; README.md beside this file says
what each one means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import WORKLOADS, Gate, inputs, make_input, now, setup, solve
from probe import REFERENCE_S, SpeedProbe
from tracer import Tracer

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Set-ups timed before the first solve; they also warm the interpreter.
SETUP_REPEATS = 25
MIN_SOLVES = 3


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def timed_run(workload, seed: int, seconds: float):
    texts = inputs(workload, seed)
    text = next(texts)
    gate = Gate(workload, seed, text)
    start = time.perf_counter()
    setups = []
    solves = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            t0 = now()
            setup(text, workload)
            setups.append((t0, now()))
            gc.collect()
        while True:
            result = solve(text, workload)
            gate.check(result)
            result.solutions = None
            solves.append(result)
            text = next(texts)
            gc.collect()
            typical = statistics.median(s.solve_s for s in solves)
            if (len(solves) >= MIN_SOLVES
                    and time.perf_counter() - start + typical > seconds):
                break
    setups += [(s.marks[0], s.marks[2]) for s in solves]
    intervals = {
        "solve_s": [(s.marks[0], s.marks[4]) for s in solves],
        "setup_s": setups,
        "search_s": [(s.marks[3], s.marks[4]) for s in solves],
    }
    metrics = {}
    for name, spans in intervals.items():
        values = [probe.normalise(t0[1], t1[1]) for t0, t1 in spans]
        metrics[name] = statistics.median(values)
        q1, q2, q3 = quartiles(values)
        wall = statistics.median(t1[0] - t0[0] for t0, t1 in spans)
        print(f"  {name:<12} {q2:.6f} s   median of {len(values)}, "
              f"quartiles {q1:.6f} .. {q3:.6f}; wall-clock median {wall:.6f} s")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']:.3f} MB")
    speed = [REFERENCE_S / k for k in probe.kernel_s]
    print(f"  CPU speed {statistics.median(speed):.3f} of reference "
          f"(range {min(speed):.3f} .. {max(speed):.3f}, {len(speed)} probe samples)")
    for count in ("backtracks", "activations", "agents"):
        values = [getattr(s, count) for s in solves]
        print(f"  {count} per solve: {min(values)} .. {max(values)}")
    return gate, metrics, []


def traced_run(workload, seed: int):
    text = make_input(workload, seed)
    gate = Gate(workload, seed, text)
    ref = solve(text, workload)
    gate.check(ref)
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        traced = tracer.run(solve, text, workload)
    finally:
        tracer.uninstall()
    gate.check(traced)

    m = tracer.metrics()
    m["model.parse_s"] = ref.parse_s
    m["model.build_s"] = ref.build_s
    m["model.agents_posted"] = ref.agents
    m["root_s"] = ref.root_s
    m["search.backtracks"] = traced.backtracks
    m["search.fail_ratio"] = (traced.backtracks / m["search.choice_points"]
                              if m["search.choice_points"] else 0.0)
    m["trace.overhead_ratio"] = m["trace.wall_s"] / ref.solve_s

    problems = []
    if (ref.backtracks, ref.activations) != (traced.backtracks, traced.activations):
        problems.append(f"traced counts ({traced.backtracks} backtracks, "
                        f"{traced.activations} activations) differ from untraced "
                        f"({ref.backtracks}, {ref.activations})")
    if m["runtime.activations"] != traced.activations:
        problems.append(f"family action spans ({m['runtime.activations']}) "
                        f"!= activations ({traced.activations})")
    spanned = sum(m[layer + ".self_s"] for layer in tracer.layer_self_s())
    if abs(spanned + m["trace.unspanned_s"] - m["trace.wall_s"]) > 1e-6 * m["trace.wall_s"]:
        problems.append("self times plus remainder do not add up to the traced wall time")
    print(f"  untraced solve {ref.solve_s:.6f} s, traced solve {m['trace.wall_s']:.6f} s")
    print(f"  counts: backtracks {traced.backtracks}, activations {traced.activations}, "
          f"events ins/bound/dom {m['runtime.events.ins']}/{m['runtime.events.bound']}/"
          f"{m['runtime.events.dom']}, spawns build/root/search "
          f"{m['runtime.spawn.build_calls']}/{m['runtime.spawn.root_calls']}/"
          f"{m['runtime.spawn.search_calls']}, choice points {m['search.choice_points']}")
    print("  self time: " + ", ".join(
        f"{layer} {m[layer + '.self_s']:.3f}" for layer in tracer.layer_self_s())
        + f", un-spanned {m['trace.unspanned_s']:.3f} (s)")
    return gate, m, problems


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    workload = WORKLOADS[args.workload]
    units = declared_units(bool(args.trace))
    print(f"workload {workload.name}: {workload.model} at {workload.level}, "
          f"alldistinct {workload.alldistinct}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    if args.trace:
        gate, metrics, problems = traced_run(workload, args.seed)
    else:
        gate, metrics, problems = timed_run(workload, args.seed, args.seconds)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           f"do not match BENCHMARK.json")
    print(f"  {'error_rate':<12} {gate.failed / gate.attempted:.4f}   "
          f"{gate.failed} of {gate.attempted} solves failed the gate")
    if gate.known_defect:
        counts = gate.defect_counts
        print(f"  KNOWN DEFECT: {gate.known_defect} of {gate.attempted} solves gave "
              f"{min(counts)} .. {max(counts)} backtracks, not the seed-0 count "
              f"{gate.expected}: the fixpoint depends on the posting order")
    for reason in gate.reasons + problems:
        print(f"  FAILED: {reason}")
    result = {
        "correct": gate.correct and not problems,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
