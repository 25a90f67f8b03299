"""Command-line front end.

Subcommands:

    solve <file|bench:name> [--level fc|ic|ac] [--alldistinct naive|linear|wac]
          [--all] [--trace] [--stats-json PATH] [--expect-sat]
          [--max-backtracks N] [--time-limit SECONDS]
    verify <file|bench:name> [--level ...] [--alldistinct ...] [--cap N]
           [--max-backtracks N] [--time-limit SECONDS]
    bench [--level ...] [--workers N]

``solve`` prints one line per solution (``name=value`` pairs in
declaration order) followed by
``stats: backtracks=<n> activations=<n> solutions=<n> time_ms=<t>``;
--stats-json writes the same four fields plus ``agents`` (the agent
count after posting) as a JSON object.  The path is opened for
appending before the search, so an unwritable path exits 2 before any
output and an existing file is not truncated; the JSON is written only
on the exits that report stats (0, 3 and 5), and on any other exit a
file this run created is removed.  --trace
streams one tab-separated line per propagator activation to stderr:
``<seq>\\t<agent>\\t<event>\\t<rule>\\t<outcome>``.

``verify`` prints one ``<predicate> consistent at root: yes|NO`` line
per predicate that defines the configuration's root fixpoint: interval
consistency of every linear equality at ic and ac; at ac, arc
consistency of every binary equality and of every n-ary sum left with
two unbound variables (the pair the hybrid scheme keeps arc consistent);
weak arc consistency of every all_distinct under wac.  It then labels
from that same root fixpoint for all solutions and compares them
against the brute-force enumeration oracle.

--max-backtracks and --time-limit bound the search of ``solve`` and
``verify``; --time-limit also bounds each fixpoint, root propagation
included.  When one is hit, ``solve`` still prints the solutions found
so far and its stats line; both then exit 5.

Exit codes: 0 success, 2 model/parse/option or file I/O error, 3
unsatisfiable with --expect-sat, 4 internal invariant violation, 5
search limit reached, 141 standard output or the --trace stream closed
by its reader (the code a shell reports for a tool killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .alldistinct import Strategy
from .benchmarks import BENCH_CORPUS, get_benchmark
from .linear import CapacityError, ConsistencyLevel
from .model import (
    ALL_SOLUTIONS,
    FIRST_SOLUTION,
    Model,
    ModelError,
    SolverConfig,
    build,
    fixpoint_violations,
    label_from_root,
    parse_model,
    solve_model,
)
from .oracle import DEFAULT_CAP, CapExceeded, enumerate_solutions
from .runtime import LimitReached
from .store import InvariantError

EXIT_OK = 0
EXIT_MODEL_ERROR = 2
EXIT_UNSAT = 3
EXIT_INVARIANT = 4
EXIT_LIMIT = 5
EXIT_BROKEN_PIPE = 141


def _load(ref: str) -> Model:
    if ref.startswith("bench:"):
        try:
            return get_benchmark(ref[len("bench:"):])
        except (KeyError, ValueError) as exc:  # unknown name, size out of range
            raise ModelError(str(exc.args[0])) from None
    path = Path(ref)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelError(f"cannot read {ref}: {exc}") from None
    return parse_model(text, path.stem)


def _config(args, mode: str) -> SolverConfig:
    return SolverConfig(level=args.level, alldistinct=args.alldistinct, mode=mode,
                        max_backtracks=args.max_backtracks,
                        time_limit=args.time_limit)


def _limit_reached(limit) -> bool:
    """Report a search cut short by --max-backtracks or --time-limit."""
    if limit is None:
        return False
    print(f"error: search limit reached ({limit})", file=sys.stderr)
    return True


def _write_text(path: str, text: str, mode: str = "w") -> bool:
    """Write (or, with mode "a", append) text to path; report a failure
    and return False."""
    try:
        with open(path, mode, encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _cmd_solve(args) -> int:
    model = _load(args.model)
    mode = ALL_SOLUTIONS if args.all else FIRST_SOLUTION
    config = _config(args, mode)
    path = args.stats_json
    created = bool(path) and not os.path.exists(path)
    # check the --stats-json path before the search: a bad path costs no
    # solve, and appending leaves a file that is there as it is
    if path and not _write_text(path, "", "a"):
        return EXIT_MODEL_ERROR
    written = False
    try:
        result = solve_model(model, config,
                             trace_stream=sys.stderr if args.trace else None)
        names = [vd.name for vd in model.vars]
        for sol in result.solutions:
            print(" ".join(f"{n}={v}" for n, v in zip(names, sol)))
        payload = {"backtracks": result.backtracks, "activations": result.activations,
                   "solutions": len(result.solutions), "time_ms": result.time_ms}
        print("stats: " + " ".join(f"{k}={v}" for k, v in payload.items()))
        if path:
            sys.stdout.flush()  # a closed stdout fails the run before the JSON is written
            payload["agents"] = result.agents
            written = _write_text(path, json.dumps(payload))
            if not written:
                return EXIT_MODEL_ERROR
    finally:
        if created and not written:
            os.remove(path)  # an error exit leaves no file of its own
    if _limit_reached(result.limit):
        return EXIT_LIMIT
    if args.expect_sat and not result.solutions:
        return EXIT_UNSAT
    return EXIT_OK


def _root_consistency_report(model: Model, config: SolverConfig, store,
                             root_ok: bool) -> list[str]:
    """Report, per defining predicate of the config's fixpoint, whether
    every constraint meets it at the store's root fixpoint."""
    if not root_ok:
        return ["root propagation: failed (constraints are inconsistent)"]
    domains = [list(store.domain(i).values()) for i in range(len(model.vars))]
    return [f"{key} consistent at root: {'NO' if failed else 'yes'}"
            for key, failed in fixpoint_violations(model, domains, config).items()]


def _cmd_verify(args) -> int:
    model = _load(args.model)
    config = _config(args, ALL_SOLUTIONS)
    started = time.perf_counter()
    try:
        store, rt, ok = build(model, config)
        ok = ok and rt.run_to_fixpoint()
    except LimitReached as exc:
        _limit_reached(str(exc))
        return EXIT_LIMIT
    root_s = time.perf_counter() - started
    for line in _root_consistency_report(model, config, store, ok):
        print(line)
    # the oracle runs before the search: its cap check refuses a model
    # too large to enumerate before the engine spends time on all of
    # its solutions
    try:
        expected = enumerate_solutions(model.to_ground(), args.cap)
    except CapExceeded as exc:
        print(f"oracle refused: {exc}")
        return EXIT_MODEL_ERROR
    # the time limit also counts the root propagation, not the oracle
    result = label_from_root(model, config, rt, ok, time.perf_counter() - root_s)
    if _limit_reached(result.limit):
        return EXIT_LIMIT
    agree = set(result.solutions) == expected
    print(f"solutions agree: {'yes' if agree else 'no'} "
          f"(engine {len(result.solutions)}, oracle {len(expected)})")
    return EXIT_OK if agree else 1


def _bench_one(spec: tuple[str, str, str]) -> tuple[str, int, int, int]:
    name, level, alldistinct = spec
    model = get_benchmark(name)
    config = SolverConfig(level=level, alldistinct=alldistinct, mode=FIRST_SOLUTION)
    result = solve_model(model, config)
    return name, result.backtracks, len(result.solutions), result.time_ms


def _cmd_bench(args) -> int:
    specs = [(name, args.level, args.alldistinct) for name in BENCH_CORPUS]
    started = time.perf_counter()
    workers = min(args.workers, len(specs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_bench_one, specs))
    else:
        rows = [_bench_one(spec) for spec in specs]
    for name, backtracks, solutions, ms in rows:
        print(f"{name:<14} backtracks={backtracks:<8} solutions={solutions:<4} time_ms={ms}")
    total = int((time.perf_counter() - started) * 1000)
    print(f"total time_ms={total}")
    return EXIT_OK


def _at_least(kind, lowest):
    """An argparse type: ``kind(text)``, refused (exit 2) below ``lowest``."""
    def parse(text: str):
        value = kind(text)
        if not value >= lowest:  # also refuses nan
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdprop",
                                     description="Finite-domain constraint solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--level", default="ac",
                       choices=[level.value for level in ConsistencyLevel])
        p.add_argument("--alldistinct", default="linear",
                       choices=[strategy.value for strategy in Strategy])

    def add_limits(p):
        p.add_argument("--max-backtracks", type=_at_least(int, 0), metavar="N",
                       help="stop the search after more than N backtracks (exit 5)")
        p.add_argument("--time-limit", type=_at_least(float, 0), metavar="SECONDS",
                       help="stop the search after SECONDS of solving (exit 5)")

    solve = sub.add_parser("solve", help="solve a model file or bench:<name>")
    solve.add_argument("model")
    add_config(solve)
    solve.add_argument("--all", action="store_true", help="find all solutions")
    solve.add_argument("--trace", action="store_true",
                       help="stream activation trace to stderr")
    solve.add_argument("--stats-json", metavar="PATH")
    solve.add_argument("--expect-sat", action="store_true",
                       help="exit 3 when no solution exists")
    add_limits(solve)
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify",
                            help="cross-check a model against the enumeration oracle")
    verify.add_argument("model")
    add_config(verify)
    verify.add_argument("--cap", type=_at_least(int, 0), default=DEFAULT_CAP,
                        help="oracle assignment-count cap")
    add_limits(verify)
    verify.set_defaults(func=_cmd_verify)

    bench = sub.add_parser("bench", help="run the benchmark corpus")
    add_config(bench)
    bench.add_argument("--workers", type=_at_least(int, 1), default=1,
                       help="worker processes, at most one per corpus entry")
    bench.set_defaults(func=_cmd_bench)
    return parser


def _run(args) -> int:
    try:
        return args.func(args)
    except (ModelError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL_ERROR
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main(argv=None) -> int:
    try:
        try:
            return _run(_parser().parse_args(argv))
        finally:
            # flush now, not at exit, so that a closed reader is caught
            # below; argparse's exits (--help, a bad option) pass here too
            sys.stdout.flush()
            sys.stderr.flush()
    except BrokenPipeError:
        # point each closed stream at the null device: its pending output
        # is dropped and the flush at exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BrokenPipeError:
                os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
