"""The committed count matrix (COUNTS.json) against a fresh run.

Every row but alpha's, the slow ones, is re-run here, and alpha's row
for the shipped posting order and fifo; the whole file is checked with
``python tools/count_matrix.py --check COUNTS.json``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "count_matrix.py"
COUNTS = ROOT / "COUNTS.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location("count_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_count_matrix_fast_rows_match():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, str(TOOL), "--check", str(COUNTS),
                        "--exclude", "alpha"],
                       cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "0 difference(s)" in r.stdout


def test_count_matrix_alpha_shipped_order_row_matches():
    tool = _load_tool()
    expected = json.loads(COUNTS.read_text(encoding="utf-8"))
    key = ("alpha", "ac", "linear", 0, "fifo")
    stored = next(row for row in expected if tuple(row[k] for k in tool.KEY) == key)
    assert tool.run_row(*key) == stored


def test_count_matrix_names_a_moved_row():
    tool = _load_tool()
    expected = json.loads(COUNTS.read_text(encoding="utf-8"))
    assert len(expected) == len(tool.CONFIGS) * len(tool.ORDERS) * len(tool.QUEUES)
    only = "sendmoney"
    exclude = frozenset(name for name, _, _ in tool.CONFIGS if name != only)
    moved = next(row for row in expected if row["model"] == only)
    moved["activations"] += 1
    problems, moved_rows = tool.check(expected, exclude)
    assert len(problems) == 1
    assert "'activations'" in problems[0] and "'fifo'" in problems[0]
    assert moved_rows == [(moved, {**moved, "activations": moved["activations"] - 1})]


def test_count_matrix_prints_work_totals(tmp_path, capsys):
    tool = _load_tool()
    expected = json.loads(COUNTS.read_text(encoding="utf-8"))
    only = "sendmoney"
    exclude = [arg for name, _, _ in tool.CONFIGS if name != only
               for arg in ("--exclude", name)]
    rows = [row for row in expected if row["model"] == only]
    fresh = rows[0]["activations"] + rows[1]["activations"]
    queued = rows[0]["queued"] + rows[1]["queued"]
    walked = rows[0]["walked"] + rows[1]["walked"]
    trailed = rows[0]["trailed"] + rows[1]["trailed"]
    rows[0]["activations"] += 2
    rows[1]["activations"] -= 1  # the fresh run rose on this row
    del rows[0]["walked"]  # a row stored before the column: 0 -> fresh
    path = tmp_path / "COUNTS.json"
    path.write_text(json.dumps(expected), encoding="utf-8")
    assert tool.main(["--check", str(path), *exclude]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [
        f"activations over 2 moved row(s): {fresh + 1} -> {fresh}, rose on 1",
        f"queued over 2 moved row(s): {queued} -> {queued}, rose on 0",
        f"walked over 2 moved row(s): {rows[1]['walked']} -> {walked}, rose on 1",
        f"trailed over 2 moved row(s): {trailed} -> {trailed}, rose on 0",
        "activations moved on 2 row(s)",
        "walked moved on 1 row(s)",
        "count matrix: 2 difference(s)",
    ]
