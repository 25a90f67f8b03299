"""Mutation checks: named source mutations and the tests that must kill them.

Each mutation is (name, file, exact old text, new text, killing tests).
For each one the tool copies the repository into a temporary directory,
replaces the old text, which must occur exactly once in the file, and
runs ``pytest -x -q`` on the killing tests there.  A mutation is killed
when those tests fail, and survives when they pass; a survivor means
the tests do not check what the mutation breaks.  The tool prints one
line per mutation and exits 1 if any survives or cannot be applied.

    python tools/mutants.py

The tier-1 suite only checks that every old text still occurs exactly
once, so a refactor that moves the code shows up there; the full run
is this tool.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

STORE = "src/fdprop/store.py"
IN_PLACE = "tests/test_store.py::test_in_place_narrowing_matches_a_set_reference"
FRAMES = "tests/test_search.py::test_label_frames_iterate_the_domain_at_frame_creation"


@dataclass(frozen=True)
class Mutation:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTATIONS = (
    Mutation("holed-bound-exclusion-keeps-lo", STORE,
             "shift = (bits & -bits).bit_length() - 1", "shift = 0",
             (IN_PLACE,)),
    Mutation("contiguous-survivors-keep-bits", STORE,
             "var.bits = None if var.count == hi - lo + 1 else bits", "var.bits = bits",
             (IN_PLACE,)),
    Mutation("interior-exclusion-posts-bound", STORE,
             "self.event_sink(DOM, x, v)", "self.event_sink(BOUND, x, None)",
             (IN_PLACE,)),
    Mutation("snapshot-kept-on-narrowing", STORE,
             "var.snapshot = None\n        depth = len(self._cps)",
             "depth = len(self._cps)",
             (IN_PLACE, FRAMES)),
    Mutation("snapshot-kept-on-backtrack", STORE,
             "= trail.pop()\n            var.snapshot = None", "= trail.pop()",
             (IN_PLACE,)),
    Mutation("save-trails-every-change", STORE,
             "if var.stamp != depth:", "if True:",
             (IN_PLACE, "tests/test_store.py::test_one_trail_entry_per_variable_per_choice_point",
              "tests/test_runtime.py::test_long_fixpoint_trails_each_variable_once")),
    Mutation("save-never-trails", STORE,
             "if var.stamp != depth:", "if False:",
             (IN_PLACE, "tests/test_store.py::test_nested_backtracking_matches_reference_snapshots")),
    Mutation("backtrack-keeps-stamps", STORE,
             "var.bits, var.stamp = trail.pop()", "var.bits, _ = trail.pop()",
             (IN_PLACE, "tests/test_store.py::test_one_trail_entry_per_variable_per_choice_point")),
    Mutation("revise-reads-live-members", "src/fdprop/linear.py",
             "for val in members(vx.lo, vx.hi, vx.bits):",
             "for val in (w for w in range(vx.lo, vx.hi + 1)"
             " if vx.bits is None or (vx.bits >> (w - vx.lo)) & 1):",
             ("tests/test_fixpoint_depth.py",)),
    Mutation("fixpoint-ignores-deadline", "src/fdprop/runtime.py",
             'raise LimitReached("time limit")', "pass",
             ("tests/test_model_cli.py::test_time_limit_cuts_a_long_fixpoint_short",
              "tests/test_search.py::test_a_fixpoint_past_the_deadline_unwinds_the_search_to_the_root")),
)


def occurrences(mutation: Mutation) -> int:
    return (ROOT / mutation.file).read_text(encoding="utf-8").count(mutation.old)


def _ignore(_dir, names):
    return [n for n in names
            if n in (".git", "__pycache__", ".pytest_cache") or n.startswith("BENCH_")]


def run(mutation: Mutation) -> str:
    """'killed', 'SURVIVED' or an error word, after running the killing
    tests against a mutated copy of the repository."""
    if occurrences(mutation) != 1:
        return "NOT-APPLIED"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        path = copy / mutation.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutation.old, mutation.new),
                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutation.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # pytest exits 1 when a test failed; 0 when all passed; else it
    # could not run them (usage error, no tests collected, ...)
    return {0: "SURVIVED", 1: "killed"}.get(done.returncode, f"ERROR(pytest {done.returncode})")


def main() -> int:
    bad = 0
    for m in MUTATIONS:
        outcome = run(m)
        bad += outcome != "killed"
        print(f"{outcome:<10} {m.name}  ({m.file}; {len(m.tests)} killing test(s))", flush=True)
    print(f"{len(MUTATIONS) - bad} of {len(MUTATIONS)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
