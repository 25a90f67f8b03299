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
RESTORED_READ = "tests/test_store.py::test_a_read_after_a_backtrack_gives_the_restored_fields"
SHARED_TRAIL = "tests/test_store.py::test_records_and_variables_share_one_trail_randomized"
ALLDISTINCT = "src/fdprop/alldistinct.py"
FULL_SCAN = "tests/test_alldistinct.py::test_outof_reducer_matches_full_scan"
LIVE_TUPLES = ("tests/test_alldistinct.py::"
               "test_live_tuples_hold_the_uncommitted_elements_at_every_node")
EXCLUSION_RECORDS = ("tests/test_alldistinct.py::"
                     "test_exclusion_records_hold_the_uncommitted_members_at_every_node")
LINEAR = "src/fdprop/linear.py"
RUNTIME = "src/fdprop/runtime.py"
SHARED_EVENTS = "tests/test_runtime.py::test_posts_reach_only_watched_lists_with_shared_events"
QUEUED_IFF_SET = "tests/test_runtime.py::test_a_record_is_queued_iff_its_n_is_set_randomized"
MASK_COMMIT = "tests/test_linear.py::test_forward_checking_commit_by_mask"
FC_REFERENCE = "tests/test_linear.py::test_forward_checking_reaches_reference_fixpoint"
SUM_REFERENCES = ("tests/test_linear.py::test_unite_reaches_reference_bounds_fixpoint",
                  "tests/test_linear.py::test_reducer_matches_two_pass_reference",
                  "tests/test_linear.py::test_linear_models_reach_reference_fixpoint")


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
             "if var.watchers[DOM]:\n                self.event_sink(DOM, x, v)",
             "if var.watchers[BOUND]:\n                self.event_sink(BOUND, x, None)",
             (IN_PLACE,)),
    Mutation("remove-bits-tests-the-bound-list-for-dom", STORE,
             "if watchers[DOM]:", "if watchers[BOUND]:",
             (IN_PLACE,)),
    Mutation("intersect-posts-ins-only-when-bound-is-watched", STORE,
             "_set_bits(var, bits, lo)\n        kind = INS if count == 1 else BOUND\n"
             "        if var.watchers[kind]:",
             "_set_bits(var, bits, lo)\n        kind = INS if count == 1 else BOUND\n"
             "        if var.watchers[BOUND]:",
             (IN_PLACE,)),
    Mutation("exclude-moves-a-bound-one-value-too-far", STORE,
             "var.lo = lo + 1", "var.lo = lo + 2",
             (IN_PLACE,)),
    Mutation("memo-skips-the-bits-comparison", STORE,
             " or d.bits != self.bits:", ":",
             (RESTORED_READ, SHARED_TRAIL)),
    Mutation("save-trails-every-change", STORE,
             "if var.stamp != depth:", "if True:",
             (IN_PLACE, "tests/test_store.py::test_one_trail_entry_per_variable_per_choice_point",
              "tests/test_runtime.py::test_long_fixpoint_trails_each_variable_once")),
    Mutation("save-never-trails", STORE,
             "if var.stamp != depth:", "if False:",
             (IN_PLACE, "tests/test_store.py::test_nested_backtracking_matches_reference_snapshots")),
    Mutation("backtrack-keeps-stamps", STORE,
             "var.bits, var.stamp = entry", "var.bits, _ = entry",
             (IN_PLACE, "tests/test_store.py::test_one_trail_entry_per_variable_per_choice_point")),
    Mutation("record-entry-not-restored", STORE,
             "record, record.live, record.stamp = entry", "pass",
             (SHARED_TRAIL, LIVE_TUPLES)),
    Mutation("stale-choice-point-pops-the-stack", STORE,
             "i = len(cps) - 1\n        while i >= 0 and cps[i] is not cp:\n            i -= 1\n",
             "while cps and cps[-1] is not cp:\n            cps.pop()\n        i = len(cps) - 1\n",
             ("tests/test_store.py::test_a_stale_choice_point_leaves_the_store_as_it_was",)),
    Mutation("remove-bits-wipe-out-test-off-by-one", STORE,
             "if var.count <= n:", "if var.count < n:",
             (IN_PLACE,)),
    Mutation("remove-bits-dom-outside-new-bounds", STORE,
             "inner = (m >> (new_lo + 1 - lo)) & ((1 << (new_hi - new_lo - 1)) - 1)",
             "inner = m >> (new_lo + 1 - lo)",
             (IN_PLACE,)),
    Mutation("mask-commit-skips-membership-and", LINEAR,
             "m &= (1 << (vz.hi - lo + 1)) - 1 if bits is None else bits",
             "m &= (1 << (vz.hi - lo + 1)) - 1",
             (MASK_COMMIT, FC_REFERENCE)),
    Mutation("mask-commit-shifts-the-wrong-way", LINEAR,
             "m = mask << shift\n            else:\n                m = mask >> -shift",
             "m = mask >> shift\n            else:\n                m = mask << -shift",
             (MASK_COMMIT, FC_REFERENCE)),
    Mutation("revise-reads-live-members", LINEAR,
             "for val in members(vx.lo, vx.hi, vx.bits):",
             "for val in (w for w in range(vx.lo, vx.hi + 1)"
             " if vx.bits is None or (vx.bits >> (w - vx.lo)) & 1):",
             ("tests/test_fixpoint_depth.py",)),
    Mutation("spare-one-too-high", ALLDISTINCT,
             "spare = len(scope) - n", "spare = len(scope) - n + 1",
             (FULL_SCAN,)),
    Mutation("spare-one-too-low", ALLDISTINCT,
             "spare = len(scope) - n", "spare = len(scope) - n - 1",
             (FULL_SCAN,)),
    Mutation("filled-domain-skips-exclusions", ALLDISTINCT,
             "failing = spare", "failing = 0",
             (FULL_SCAN,)),
    Mutation("second-pass-shifts-dom-x-the-wrong-way", ALLDISTINCT,
             "bits << shift if shift >= 0 else bits >> -shift",
             "bits >> shift if shift >= 0 else bits << -shift",
             (FULL_SCAN,)),
    Mutation("live-tuple-not-trailed", LINEAR,
             "store.save_record(record)", "pass",
             (LIVE_TUPLES, EXCLUSION_RECORDS)),
    Mutation("bound-uncommitted-partner-skipped", LINEAR,
             "if vz.count == 1:\n                if vz.lo - v in offsets:\n"
             "                    return False\n                continue",
             "if vz.count == 1:\n                continue",
             ("tests/test_linear.py::test_diseq_examples", FC_REFERENCE)),
    Mutation("single-offset-commit-bars-the-wrong-value", LINEAR,
             "w = v + dmin", "w = v - dmin",
             (FC_REFERENCE,)),
    Mutation("single-offset-member-test-drops-lo", LINEAR,
             "if lo <= w <= vz.hi:", "if lo < w <= vz.hi:",
             (FC_REFERENCE,)),
    Mutation("exhausted-subtree-counted-as-backtrack", "src/fdprop/search.py",
             "            stack.pop()\n        return False",
             "            stack.pop()\n            stats.backtracks += 1\n        return False",
             ("tests/test_count_matrix.py::test_count_matrix_fast_rows_match",)),
    Mutation("post-reaches-agents-suspended-after-it", RUNTIME,
             "for agent in watchers[:n]:", "for agent in watchers[:len(watchers)]:",
             ("tests/test_runtime.py::test_event_erasure_between_post_and_take",)),
    Mutation("expansion-walks-the-live-list", RUNTIME,
             "for agent in watchers[:n]:", "for agent in watchers:",
             ("tests/test_runtime.py::test_event_erasure_during_expansion",)),
    Mutation("post-makes-a-new-ins-or-bound-event", RUNTIME,
             "record = v.records[kind]",
             "record = [Event(kind, var, value), v.watchers[kind], 0]",
             (SHARED_EVENTS,)),
    Mutation("taken-bound-record-left-pending", RUNTIME,
             "record = take()\n            record[2] = 0",
             "record = take()\n            if event.kind != 2:  # BOUND\n"
             "                record[2] = 0",
             ("tests/test_runtime.py::test_bound_post_after_the_take_queues_a_new_record",)),
    Mutation("take-leaves-n-set", RUNTIME,
             "record = take()\n            record[2] = 0", "record = take()",
             (QUEUED_IFF_SET,)),
    Mutation("restore-keeps-pending", RUNTIME,
             "for record in queue:\n            record[2] = 0",
             "for record in queue:\n            if record[0].kind != 2:  # BOUND\n"
             "                record[2] = 0",
             ("tests/test_runtime.py::"
              "test_bound_post_after_a_failed_fixpoint_and_backtrack_queues_afresh",)),
    Mutation("restore-leaves-n-set", RUNTIME,
             "for record in queue:\n            record[2] = 0", "pass",
             (QUEUED_IFF_SET,)),
    Mutation("merge-keeps-the-first-length", RUNTIME,
             "record[2] = len(record[1])\n            if queued:\n                return",
             "if queued:\n                return\n            record[2] = len(record[1])",
             ("tests/test_runtime.py::test_bound_posts_before_a_take_share_one_record",)),
    Mutation("reducer-skips-the-store-unless-both-bounds-move", LINEAR,
             "if new_lo > var.lo or new_hi < var.hi:", "if new_lo > var.lo and new_hi < var.hi:",
             SUM_REFERENCES),
    Mutation("slack-test-skips-on-one-side", LINEAR,
             "if widest <= -t_lo and widest <= t_hi:", "if widest <= -t_lo or widest <= t_hi:",
             SUM_REFERENCES),
    Mutation("negative-coefficient-lower-bound-rounded-down", LINEAR,
             "new_lo = -((cur_hi - los[i]) // -a)", "new_lo = (los[i] - cur_hi) // -a",
             SUM_REFERENCES),
    Mutation("restore-keeps-watchers", RUNTIME,
             "vars_[var].watchers[kind].pop()", "pass",
             ("tests/test_runtime.py::test_backtrack_restores_agent_table_and_watchers",)),
    Mutation("fixpoint-ignores-deadline", RUNTIME,
             'raise LimitReached("time limit")', "pass",
             ("tests/test_model_cli.py::test_time_limit_cuts_a_long_fixpoint_short",
              "tests/test_search.py::test_a_fixpoint_past_the_deadline_unwinds_the_search_to_the_root")),
    Mutation("posting-revise-ignores-deadline", LINEAR,
             "check_deadline(deadline)\n    y_lo = vy.lo", "y_lo = vy.lo",
             ("tests/test_model_cli.py::test_time_limit_cuts_posting_short",)),
    Mutation("verify-weak-arc-report-ignores-deadline", "src/fdprop/model.py",
             "tick=partial(check_deadline, deadline)", "tick=None",
             ("tests/test_model_cli.py::test_time_limit_cuts_verify_root_report_short",)),
    Mutation("weak-ac-posting-ignores-deadline", ALLDISTINCT,
             "check_deadline(rt.deadline)\n        reduce = None", "reduce = None",
             ("tests/test_model_cli.py::test_time_limit_cuts_weak_ac_posting_short",)),
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
