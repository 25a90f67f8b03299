"""``tools/bench_pairs.py``: exact opcode deltas of two trees, and the
medians of repeated traced runs."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
sys.modules["bench_pairs"] = bench_pairs
spec.loader.exec_module(bench_pairs)


def test_opcode_deltas_table():
    table = bench_pairs.opcode_deltas("w", {"total": 200, "a.py": 150, "b.py": 50},
                                      {"total": 190, "a.py": 120, "b.py": 60, "c.py": 10})
    rows = [line.split() for line in table.splitlines()]
    assert rows == [["w", "parent", "change", "delta"],
                    ["total", "200", "190", "-10", "-5.00%"],
                    ["a.py", "150", "120", "-30", "-20.00%"],
                    ["b.py", "50", "60", "+10", "+20.00%"],
                    ["c.py", "0", "10", "+10", "new"]]


def test_opcodes_of_one_tree_against_itself_differ_by_nothing(monkeypatch, capsys):
    """Both sides are copies of this checkout's engine, its benchmark
    and its tools, so every workload's counts agree exactly."""
    def export(_rev, dest):
        for name in ("src", "perfbench", "tools"):
            shutil.copytree(ROOT / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))

    monkeypatch.setattr(bench_pairs, "export", export)
    assert bench_pairs.main(["--parent", "HEAD", "--opcodes", "--max-backtracks", "3"]) == 0
    tables = capsys.readouterr().out.splitlines()
    headers = [i for i, line in enumerate(tables) if not line.startswith(" ")]
    assert [tables[i].split()[0] for i in headers] == list(bench_pairs.WORKLOADS)
    direct = bench_pairs.opcodes(ROOT, "queens", 3)
    rows = [line.split() for line in tables[1:headers[1]]]
    assert [row[0] for row in rows] == list(direct) and direct["total"] > 0
    assert [int(row[1].replace(",", "")) for row in rows] == list(direct.values())
    assert direct["total"] == sum(n for name, n in direct.items() if name != "total")
    for line in tables:
        if line.startswith(" "):
            assert line.split()[3:] == ["+0", "+0.00%"]


def test_opcodes_merge_into_the_bench_file(monkeypatch, tmp_path, capsys):
    """With ``--out``, ``--opcodes`` merges each tree's total and
    per-module counts into the file, keeping what it already holds, and
    still prints the tables."""
    def export(_rev, dest):
        for name in ("src", "perfbench", "tools"):
            shutil.copytree(ROOT / name, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "abc")
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"runs": {"queens": {}}}))
    assert bench_pairs.main(["--parent", "HEAD", "--opcodes", "--max-backtracks", "3",
                             "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0].split()[0] == bench_pairs.WORKLOADS[0]
    doc = json.loads(out.read_text())
    assert doc["runs"] == {"queens": {}} and doc["parent"] == "abc"
    recorded = doc["opcodes_seed0"]
    assert recorded["command"] == ("python tools/opcount.py --workload <workload>"
                                   " --max-backtracks 3")
    assert list(recorded["counts"]) == list(bench_pairs.WORKLOADS)
    direct = bench_pairs.opcodes(ROOT, "queens", 3)
    assert recorded["counts"]["queens"] == {"parent": direct, "change": direct}
    for sides in recorded["counts"].values():
        assert sides["parent"]["total"] > 0 and sides["parent"] == sides["change"]


def test_traced_runs_alternate_and_record_medians(monkeypatch, tmp_path, capsys):
    """Each tree's traced solve runs three times, the trees taking turns
    to go first; the file holds each metric's median, and a count that
    differs between one tree's runs makes the tool exit 1."""
    calls = []

    def run(tree, *args):
        calls.append((tree.name, args[1]))
        i = sum(1 for name, w in calls if (name, w) == calls[-1])
        agents = 7 if tree.name == "change" and args[1] == "alpha" and i == 3 else 5
        return {"metrics": {"wall_s": {"value": float(i), "unit": "s"},
                            "agents": {"value": agents, "unit": "count"}}}

    monkeypatch.setattr(bench_pairs, "export", lambda _rev, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "run", run)
    monkeypatch.setattr(bench_pairs, "_git", lambda *args: "abc")
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", "HEAD", "--traced", "--out", str(out)]) == 1
    assert calls[:6] == [("parent", "queens"), ("change", "queens"), ("change", "queens"),
                         ("parent", "queens"), ("parent", "queens"), ("change", "queens")]
    assert len(calls) == 6 * len(bench_pairs.WORKLOADS)
    metrics = json.loads(out.read_text())["traced_seed0"]["metrics"]
    assert metrics["queens"]["parent"] == {"wall_s": 2.0, "agents": 5}
    assert metrics["alpha"]["change"] == {"wall_s": 2.0, "agents": 5}
    assert capsys.readouterr().err.splitlines() == [
        "count differs between runs: alpha change agents"]
