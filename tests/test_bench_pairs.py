"""``tools/bench_pairs.py --opcodes``: exact opcode deltas of two trees."""

import importlib.util
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
