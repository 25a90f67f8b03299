"""Interpreted opcodes per module and function for one benchmark run.

    python tools/opcount.py --workload queens [--phase setup|solve] \
        [--max-backtracks N]

Runs one seed-0 input of a ``perfbench`` workload (the shipped
constraint order) under ``sys.settrace`` with ``f_trace_opcodes`` and
counts every opcode executed in a frame of a module under
``src/fdprop``.  The ``setup`` phase is parse plus build, the work that
``setup_s`` times; ``solve`` is the whole closed-loop solve that
``solve_s`` times: parse, build, root propagation and labeling to the
first solution, or until more than ``--max-backtracks`` attempts fail.

It prints the total, the count of each module and the top 15 functions.
The counts are the same on every run with one interpreter, so a change
in work shows exactly; they are not time, since work done in C (big-int
bit operations, allocation, ``divmod``) counts as one opcode however
long it takes.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = str(ROOT / "src" / "fdprop")
TOP = 15  # functions listed by count


@functools.lru_cache(maxsize=None)
def _harness():
    """perfbench's harness module: its workloads, and the engine it
    imports from this checkout's ``src``."""
    spec = importlib.util.spec_from_file_location("perfbench_harness",
                                                  ROOT / "perfbench" / "harness.py")
    harness = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = harness  # dataclasses look their module up there
    spec.loader.exec_module(harness)
    return harness


def opcodes(run, package: str = PACKAGE) -> Counter:
    """Opcodes per (module file name, function qualname) executed in
    frames of code under ``package`` while ``run()`` runs.  Code objects
    that share a key, such as two comprehensions in one function, add
    up under it."""
    counts: Counter = Counter()
    names: dict = {}

    def local(frame, event, _arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def call(frame, _event, _arg):
        code = frame.f_code
        if code not in names:
            if not code.co_filename.startswith(package):
                names[code] = None
                return None
            names[code] = (Path(code.co_filename).name, code.co_qualname)
        elif names[code] is None:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    result: Counter = Counter()
    for code, n in counts.items():
        result[names[code]] += n
    return result


def count(workload: str, phase: str = "solve", max_backtracks: int | None = None) -> Counter:
    """Opcodes per (module file name, function qualname) executed under
    ``src/fdprop`` by one run of the phase."""
    harness = _harness()
    from fdprop.model import SolverConfig, build, parse_model, solve_model

    w = harness.WORKLOADS[workload]
    config = SolverConfig(level=w.level, alldistinct=w.alldistinct,
                          max_backtracks=max_backtracks)
    text = harness.make_input(w, 0)

    def run():
        model = parse_model(text, w.name)
        if phase == "setup":
            build(model, config)
        else:
            solve_model(model, config)

    return opcodes(run)


def report(counts: Counter) -> str:
    total = sum(counts.values())
    modules: Counter = Counter()
    for (module, _), n in counts.items():
        modules[module] += n
    lines = [f"{total:>12,}  opcodes under src/fdprop", "", "per module:"]
    lines += [f"{n:>12,}  {100 * n / total:5.1f}%  {module}"
              for module, n in modules.most_common()]
    lines += ["", f"top {TOP} functions:"]
    lines += [f"{n:>12,}  {100 * n / total:5.1f}%  {module}:{name}"
              for (module, name), n in counts.most_common(TOP)]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(_harness().WORKLOADS))
    parser.add_argument("--phase", choices=("setup", "solve"), default="solve")
    parser.add_argument("--max-backtracks", type=int, default=None)
    args = parser.parse_args(argv)
    counts = count(args.workload, args.phase, args.max_backtracks)
    print(f"{args.workload} {args.phase}"
          + (f", at most {args.max_backtracks} backtracks" if args.max_backtracks is not None
             else ""))
    print(report(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
