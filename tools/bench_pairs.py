"""Alternating benchmark pairs of a parent commit against a change.

    python tools/bench_pairs.py --parent REV --workload queens --seeds 1-10 \
        --out BENCH_<n>.json [--seconds 40]
    python tools/bench_pairs.py --parent REV --traced --out BENCH_<n>.json
    python tools/bench_pairs.py --parent REV --opcodes [--max-backtracks N]

The parent is exported with ``git archive`` and the change is the
working tree (its tracked files and untracked, not ignored ones), each
copied into a temporary directory and byte-compiled once.  For each
seed the tool runs ``perfbench/run.py --workload W --seed S --seconds
N`` in both, one process at a time, the parent first on odd seeds and
the change first on even ones, and keeps each run's last-line JSON.
``--traced`` instead records every metric of the seed-0 ``--trace 1``
run of every workload for both trees.  ``--opcodes`` writes no file: it runs each
tree's ``tools/opcount.py`` on the seed-0 solve of every workload, with
this interpreter, and prints the total and per-module opcode counts of
both and their difference.  Those counts are exact, so one run shows a
change in work.

The results are merged into ``--out`` in the layout of the earlier
``BENCH_*.json`` files: commits, command, order, seeds, every run's JSON
per workload and seed, and per end-to-end metric the parent's and the
change's quartiles over the runs, how many pairs the change won (its
value lower) and the change of the median.
"""

from __future__ import annotations

import argparse
import compileall
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("queens", "alpha", "magic-wac")
END_TO_END = ("solve_s", "setup_s", "search_s", "peak_rss_mb")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str | None, dest: Path) -> None:
    """Write the tree of rev, or of the working tree when rev is None."""
    dest.mkdir(parents=True)
    if rev is not None:
        data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                              check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(dest)
    else:
        files = _git("ls-files", "--cached", "--others", "--exclude-standard").splitlines()
        for name in files:
            src = ROOT / name
            if src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
    compileall.compile_dir(str(dest), quiet=1)


def run(tree: Path, *args: str) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tree,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def opcodes(tree: Path, workload: str, max_backtracks: int | None = None) -> dict[str, int]:
    """The seed-0 solve's opcode counts from tree's ``tools/opcount.py``:
    "total", then one entry per module, the most counted first."""
    args = [sys.executable, "tools/opcount.py", "--workload", workload]
    if max_backtracks is not None:
        args += ["--max-backtracks", str(max_backtracks)]
    lines = subprocess.run(args, cwd=tree, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    counts = {"total": int(lines[1].split()[0].replace(",", ""))}
    start = lines.index("per module:") + 1
    for line in lines[start:lines.index("", start)]:
        n, _, module = line.split()
        counts[module] = int(n.replace(",", ""))
    return counts


def opcode_deltas(workload: str, parent: dict[str, int], change: dict[str, int]) -> str:
    """A table of the parent's and the change's counts and the change
    in each, the total first and then the modules in the parent's order."""
    lines = [f"{workload:<18}{'parent':>14}{'change':>14}{'delta':>14}"]
    for name in [*parent, *(m for m in change if m not in parent)]:
        p, c = parent.get(name, 0), change.get(name, 0)
        share = f"{100 * (c - p) / p:+7.2f}%" if p else "     new"
        lines.append(f"  {name:<16}{p:>14,}{c:>14,}{c - p:>+14,}  {share}")
    return "\n".join(lines)


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [round(values[0], 5)] * 3
    return [round(v, 5) for v in statistics.quantiles(values, n=4)]


def summarize(runs: dict) -> dict:
    summary = {}
    pairs = list(runs.values())
    for metric in END_TO_END:
        parent = [p["parent"]["metrics"][metric]["value"] for p in pairs]
        change = [p["change"]["metrics"][metric]["value"] for p in pairs]
        wins = sum(c < p for p, c in zip(parent, change))
        summary[metric] = {
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "change_wins": f"{wins} of {len(pairs)}",
            "median_change": round(statistics.median(change) / statistics.median(parent) - 1, 4),
        }
    summary["failed_of_attempted"] = {
        side: "{} of {}".format(sum(p[side]["failed"] for p in pairs),
                                sum(p[side]["attempted"] for p in pairs))
        for side in ("parent", "change")}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--workload", default="queens")
    parser.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--traced", action="store_true",
                        help="record the seed-0 traced figures instead of pairs")
    parser.add_argument("--opcodes", action="store_true",
                        help="print the seed-0 opcode counts of both trees instead of pairs")
    parser.add_argument("--max-backtracks", type=int, default=None,
                        help="with --opcodes: stop each solve once more than this many"
                             " attempts have failed")
    parser.add_argument("--out", type=Path, help="the BENCH file to write or extend")
    args = parser.parse_args(argv)
    if args.opcodes:
        with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
            parent, change = Path(tmp) / "parent", Path(tmp) / "change"
            export(args.parent, parent)
            export(None, change)
            for workload in WORKLOADS:
                print(opcode_deltas(workload, opcodes(parent, workload, args.max_backtracks),
                                    opcodes(change, workload, args.max_backtracks)),
                      flush=True)
        return 0
    if args.out is None:
        parser.error("--out is required without --opcodes")

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("parent", _git("rev-parse", args.parent))
    doc.setdefault("change", "the commit that adds this file")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        export(args.parent, trees["parent"])
        export(None, trees["change"])
        if args.traced:
            traced = doc.setdefault("traced_seed0", {
                "command": "python3 perfbench/run.py --workload <workload> --seed 0 --trace 1",
                "metrics": {}})
            for workload in WORKLOADS:
                traced["metrics"][workload] = {}
                for side, tree in trees.items():
                    metrics = run(tree, "--workload", workload, "--seed", "0",
                                  "--trace", "1")["metrics"]
                    traced["metrics"][workload][side] = {
                        name: metric["value"] for name, metric in metrics.items()}
                    print(workload, side, traced["metrics"][workload][side], flush=True)
        else:
            doc["command"] = ("python3 perfbench/run.py --workload <workload> --seed <seed>"
                              f" --seconds {args.seconds:g}")
            doc["order"] = ("alternating: on odd seeds the parent ran first, on even seeds"
                            " the change")
            seeds = seeds_of(args.seeds)
            doc.setdefault("seeds", {})[args.workload] = seeds
            runs = doc.setdefault("runs", {})[args.workload] = {}
            for seed in seeds:
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                runs[str(seed)] = {}
                for side in order:
                    result = run(trees[side], "--workload", args.workload, "--seed", str(seed),
                                 "--seconds", f"{args.seconds:g}")
                    runs[str(seed)][side] = result
                    print(args.workload, seed, side,
                          result["metrics"]["solve_s"]["value"], flush=True)
            doc.setdefault("summary", {})[args.workload] = summarize(runs)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
