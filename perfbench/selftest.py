"""Checks of the benchmark harness itself, on small instances.

    python3 perfbench/selftest.py

Exits 0 when every check passes.  It shows that the correctness gate
trips on a wrong expected backtrack count and on wrong answers, that
the known magic-wac order defect still shows and is reported apart
from failed solves, that seeds give reproducible inputs, and that a
traced solve reproduces the untraced counts, accounts for its whole
wall time and leaves the engine unwrapped.
"""

from __future__ import annotations

import contextlib
import io
import sys

import run
from harness import WORKLOADS, Gate, Workload, inputs, make_input, solve
from probe import REFERENCE_S, SpeedProbe
from fdprop.benchmarks import get_benchmark
from fdprop.model import format_model
from fdprop.runtime import Runtime
from fdprop.store import Store

QUEENS8 = Workload("queens8", "queens(8)", "ac", "linear", backtracks=-1)


class CheckFailed(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def queens8() -> tuple[Workload, str]:
    """queens(8) with its true backtrack count as the expected one."""
    text = make_input(QUEENS8, 0)
    count = solve(text, QUEENS8).backtracks
    return Workload("queens8", "queens(8)", "ac", "linear", count), text


def test_gate_trips_on_wrong_count():
    w, text = queens8()
    result = solve(text, w)
    good = Gate(w, 0, text)
    check(good.check(result) is None and good.correct, "gate rejects a good solve")
    wrong = Gate(w, 0, text, expected_backtracks=w.backtracks + 1)
    reason = wrong.check(result)
    check(reason is not None and "backtracks" in reason, "wrong count passed the gate")
    check(wrong.failed == 1 and not wrong.correct, "wrong count not counted as incorrect")


def test_gate_trips_on_wrong_answers():
    w, text = queens8()
    result = solve(text, w)
    (sol,) = result.solutions
    for bad in ([], [sol, sol], [(sol[1],) + sol[1:]], [(0,) + sol[1:]], [sol[:-1]]):
        gate = Gate(w, 0, text)
        result.solutions = bad
        check(gate.check(result) is not None and not gate.correct,
              f"gate accepted solutions {bad}")


def test_known_defect_is_reported_apart_from_failures():
    w, text = queens8()
    result = solve(text, w)
    order_dependent = Workload("q8", "queens(8)", "ac", "linear", w.backtracks + 1,
                               order_invariant=False)
    shuffled = Gate(order_dependent, 3, text)
    check(shuffled.check(result) is None and shuffled.correct and shuffled.failed == 0,
          "the known defect counted as a failed solve")
    check(shuffled.known_defect == 1 and shuffled.defect_counts == [w.backtracks],
          "the known defect was not reported")
    shipped = Gate(order_dependent, 0, text)
    shipped.check(result)
    check(not shipped.correct and shipped.known_defect == 0,
          "a wrong count at seed 0 was taken as the known defect")
    invariant = Gate(Workload("q8", "queens(8)", "ac", "linear", w.backtracks + 1), 3, text)
    invariant.check(result)
    check(not invariant.correct, "a wrong count on an order-invariant workload passed")
    result.solutions = []
    wrong = Gate(order_dependent, 3, text)
    wrong.check(result)
    check(not wrong.correct and wrong.known_defect == 0,
          "a wrong answer was taken as the known defect")


def test_magic_wac_shows_the_order_defect():
    w = WORKLOADS["magic-wac"]
    texts = inputs(w, 1)
    counts = [solve(next(texts), w).backtracks for _ in range(2)]
    check(any(c != w.backtracks for c in counts),
          f"shuffled magic-wac orders gave {counts}, the seed-0 count; "
          "if the order defect is fixed, make magic-wac order invariant")


def test_seeds_give_reproducible_inputs():
    def first(seed, n=3):
        texts = inputs(QUEENS8, seed)
        return [next(texts) for _ in range(n)]

    shipped = format_model(get_benchmark("queens(8)"))
    check(first(0) == [shipped] * 3, "seed 0 changed the shipped order")
    check(first(5) == first(5), "one seed gave two sequences of inputs")
    orders = first(5)
    check(len(set(orders)) == 3 and shipped not in orders, "seed 5 did not shuffle each solve")
    check(orders[0] == make_input(QUEENS8, 5), "make_input is not the first input")
    check(all(o.splitlines()[-1] == shipped.splitlines()[-1] for o in orders),
          "the label order changed")
    check(all(sorted(o.splitlines()) == sorted(shipped.splitlines()) for o in orders),
          "a shuffle changed the constraints")


def test_traced_run_is_exact_and_complete():
    w, _ = queens8()
    originals = (Store.__dict__["exclude"], Runtime.__dict__["spawn"],
                 Runtime.__dict__["_post_kind"])
    with contextlib.redirect_stdout(io.StringIO()):
        gate, first, problems = run.traced_run(w, 2)
        _, second, _ = run.traced_run(w, 2)
    check(gate.correct and gate.failed == 0 and not problems,
          f"traced run failed: {gate.reasons + problems}")
    counts = [name for name, unit in run.declared_units(True).items() if unit == "count"]
    check(all(first[n] == second[n] for n in counts), "counts differ between two traced runs")
    check(first["runtime.activations"] > 0 and first["search.choice_points"] > 0,
          "traced run recorded nothing")
    check((Store.__dict__["exclude"], Runtime.__dict__["spawn"],
           Runtime.__dict__["_post_kind"]) == originals, "tracer left wrappers installed")


def test_probe_normalises_to_reference_speed():
    probe = SpeedProbe()
    # samples at half the reference speed, 0.1 s apart, 0.01 s each
    for i in range(20):
        probe.times.append(float(i) / 10)
        probe.kernel_s.append(2 * REFERENCE_S)
        probe.spent_s.append(probe.spent_s[-1] + 0.01)
    check(abs(probe.normalise(0.05, 1.05) - (1.0 - 0.1) / 2) < 1e-9,
          "probe time not removed or speed not applied")
    check(abs(probe.normalise(0.051, 0.052) - 0.0005) < 1e-9,
          "short interval not normalised with nearby samples")
    # one second at the reference speed, then one at half of it
    probe = SpeedProbe()
    for i in range(20):
        probe.times.append(float(i) / 10)
        probe.kernel_s.append(REFERENCE_S if i < 10 else 2 * REFERENCE_S)
        probe.spent_s.append(probe.spent_s[-1])
    check(abs(probe.normalise(0.0, 2.0) - 1.5) < 1e-9, "speed change not followed")


def test_runs_report_the_declared_metrics():
    w, _ = queens8()
    with contextlib.redirect_stdout(io.StringIO()):
        gate, metrics, problems = run.timed_run(w, 1, seconds=0.5)
        _, traced, _ = run.traced_run(w, 1)
    check(gate.attempted >= run.MIN_SOLVES and gate.correct and not problems,
          "short timed run failed")
    check(set(metrics) == set(run.declared_units(False)), "end-to-end metrics differ")
    check(set(traced) == set(run.declared_units(True)), "per-layer metrics differ")
    check(all(metrics[n] > 0 for n in metrics), "an end-to-end metric is 0")


def main() -> int:
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for test in tests:
        try:
            test()
        except CheckFailed as exc:
            failures += 1
            print(f"FAIL {test.__name__}: {exc}")
        else:
            print(f"ok   {test.__name__}")
    print(f"selftest: {len(tests) - failures} of {len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
