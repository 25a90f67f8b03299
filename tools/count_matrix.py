"""Count matrix: per-run propagation counts over a fixed set of solves.

Each row is one first-solution solve of a benchmark configuration in
one posting order, under one queue policy.  It records backtracks,
solutions, activations, queued event records, watcher entries walked,
trail entries pushed, agents (after posting), the first solution and a
sha256 of the ``--trace`` activation stream.  A change that must keep
the engine's counts can be checked against the committed file; one
that moves them shows, in the file's diff, exactly which runs moved.
``activations``, ``queued``, ``walked`` and ``trailed`` are work
columns: a change that makes the engine do more work fails the check
with the row named, and after the differences ``--check`` prints, per
work column, its sum over the moved rows, stored -> fresh, and how
many rows rose, and then, per field that moved, how many rows it moved
on.

    PYTHONPATH=src python tools/count_matrix.py --write COUNTS.json
    PYTHONPATH=src python tools/count_matrix.py --check COUNTS.json [--exclude alpha]

``trailed`` is counted here, not in the engine: for the length of a
solve the tool wraps the store's save methods (``Store.save`` and,
where it exists, ``Store.save_record``) and adds up how much each call
grows the trail.

Posting order 0 is the shipped constraint order; order k > 0 is the
shipped order shuffled by ``random.Random(k)``.  The label order never
changes.  ``--check`` exits 1 and lists the rows that differ.

The queue holds one record per posted event, except that a bound post
merges into its variable's queued bound record, and taking a record
wakes every agent that slept on the event.  Under ``lifo`` a take pops the
newest whole record; under ``random`` it draws ``randrange`` over the
queued records.  Rows under the ``random`` policy move whenever a
change alters the agent set or the number of queued records, even when
no propagation changes: one more or one fewer record reshuffles the
rest of the run.  Read "no activation count rises" on the ``fifo`` and
``lifo`` rows, or on means over several queue seeds; backtracks and
solutions must hold on every row.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import random
import sys

from fdprop.benchmarks import get_benchmark
from fdprop.model import SolverConfig, solve_model
from fdprop.store import Store

CONFIGS = (
    # (benchmark, level, alldistinct)
    ("alpha", "ac", "linear"),
    ("eq10", "ac", "linear"),
    ("eq20", "ac", "linear"),
    ("magic(3)", "ac", "linear"),
    ("magic(4)", "ac", "linear"),
    ("sendmoney", "ac", "linear"),
    ("zebra", "ac", "linear"),
    ("queens(12)", "ac", "linear"),
    ("magic(4)", "ic", "wac"),
    ("zebra", "ac", "wac"),
    ("zebra", "ic", "linear"),
    ("zebra", "fc", "linear"),
    ("holed_chain(3)", "ic", "linear"),
    ("magic(4)", "fc", "linear"),
    ("magic(4)", "ac", "naive"),
)
ORDERS = (0, 1, 2)
QUEUES = ("fifo", "lifo", "random")
QUEUE_SEED = 0

KEY = ("model", "level", "alldistinct", "order", "queue")
WORK = ("activations", "queued", "walked", "trailed")


class _TraceHash:
    """A write-only stream that hashes what the runtime traces."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, line: str) -> None:
        self.sha.update(line.encode())


@contextlib.contextmanager
def counting_trail_entries():
    """Within the block, count the trail entries the store's save
    methods push; yields a one-element list holding the count."""
    counted = [0]
    originals = {name: getattr(Store, name) for name in ("save", "save_record")
                 if hasattr(Store, name)}

    def wrap(save):
        def counted_save(store, record):
            n = len(store._trail)
            save(store, record)
            counted[0] += len(store._trail) - n
        return counted_save

    for name, save in originals.items():
        setattr(Store, name, wrap(save))
    try:
        yield counted
    finally:
        for name, save in originals.items():
            setattr(Store, name, save)


def run_row(name: str, level: str, alldistinct: str, order: int, queue: str) -> dict:
    model = get_benchmark(name)
    if order:
        constraints = list(model.constraints)
        random.Random(order).shuffle(constraints)
        model = dataclasses.replace(model, constraints=constraints)
    trace = _TraceHash()
    config = SolverConfig(level=level, alldistinct=alldistinct)
    with counting_trail_entries() as trailed:
        r = solve_model(model, config, queue_policy=queue, queue_seed=QUEUE_SEED,
                        trace_stream=trace)
    return {
        "model": name, "level": level, "alldistinct": alldistinct,
        "order": order, "queue": queue,
        "backtracks": r.backtracks, "solutions": len(r.solutions),
        "activations": r.activations, "queued": r.queued, "walked": r.walked,
        "trailed": trailed[0],
        "agents": r.agents,
        "first_solution": list(r.solutions[0]) if r.solutions else None,
        "trace_sha256": trace.sha.hexdigest(),
    }


def rows(exclude: frozenset = frozenset()):
    for name, level, alldistinct in CONFIGS:
        if name in exclude:
            continue
        for order in ORDERS:
            for queue in QUEUES:
                yield run_row(name, level, alldistinct, order, queue)


def dump(table: list[dict]) -> str:
    """One row per line, so a diff of the file names the moved runs."""
    return "[\n" + ",\n".join(json.dumps(row) for row in table) + "\n]\n"


def check(expected: list[dict],
          exclude: frozenset) -> tuple[list[str], list[tuple[dict, dict]]]:
    """The differences between the stored rows and a fresh run, and
    the (stored, fresh) pairs of the rows that moved."""
    stored = {tuple(row[k] for k in KEY): row for row in expected
              if row["model"] not in exclude}
    problems = []
    moved_rows = []
    seen = set()
    for row in rows(exclude):
        key = tuple(row[k] for k in KEY)
        seen.add(key)
        old = stored.get(key)
        if old is None:
            problems.append(f"no stored row for {key}")
        elif old != row:
            moved = {k: (old.get(k), row[k]) for k in row if old.get(k) != row[k]}
            problems.append(f"{key}: {moved}")
            moved_rows.append((old, row))
    problems.extend(f"stored row not run: {key}" for key in stored if key not in seen)
    return problems, moved_rows


def work_totals(moved_rows: list[tuple[dict, dict]]) -> list[str]:
    """One line per work column: its sum over the moved rows, stored ->
    fresh, and the number of rows where it rose."""
    lines = []
    for column in WORK:
        pairs = [(old.get(column, 0), row[column]) for old, row in moved_rows]
        rose = sum(new > old for old, new in pairs)
        lines.append(f"{column} over {len(pairs)} moved row(s): "
                     f"{sum(old for old, _ in pairs)} -> {sum(new for _, new in pairs)}, "
                     f"rose on {rose}")
    return lines


def field_moves(moved_rows: list[tuple[dict, dict]]) -> list[str]:
    """One line per field that moved, in row order: the number of
    moved rows it moved on.  ``moved_rows`` is not empty."""
    lines = []
    for field in moved_rows[0][1]:
        moved = sum(old.get(field) != row[field] for old, row in moved_rows)
        if moved:
            lines.append(f"{field} moved on {moved} row(s)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="COUNTS.json")
    mode.add_argument("--check", metavar="COUNTS.json")
    parser.add_argument("--exclude", action="append", default=[], metavar="MODEL",
                        help="leave out this benchmark's rows (repeatable; --check only)")
    args = parser.parse_args(argv)
    exclude = frozenset(args.exclude)
    if args.write:
        if exclude:
            parser.error("--exclude applies to --check only")
        with open(args.write, "w", encoding="utf-8") as f:
            f.write(dump(list(rows())))
        return 0
    with open(args.check, encoding="utf-8") as f:
        expected = json.load(f)
    problems, moved_rows = check(expected, exclude)
    for line in problems:
        print(line)
    if moved_rows:
        for line in work_totals(moved_rows) + field_moves(moved_rows):
            print(line)
    print(f"count matrix: {len(problems)} difference(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
