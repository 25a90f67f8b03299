"""``tools/opcount.py``: exact opcode counts per module and function."""

import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("opcount", ROOT / "tools" / "opcount.py")
opcount = importlib.util.module_from_spec(spec)
sys.modules["opcount"] = opcount
spec.loader.exec_module(opcount)


def test_two_runs_count_the_same_and_the_modules_sum_to_the_total(capsys):
    first = opcount.count("queens", "solve", 3)
    assert opcount.count("queens", "solve", 3) == first
    assert opcount.main(["--workload", "queens", "--max-backtracks", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    total = int(lines[1].split()[0].replace(",", ""))
    assert total == sum(first.values()) > 0
    start = lines.index("per module:") + 1
    modules = {}
    for line in lines[start:lines.index("", start)]:
        n, _, module = line.split()
        modules[module] = int(n.replace(",", ""))
    assert sum(modules.values()) == total
    assert {"store.py", "linear.py", "runtime.py", "search.py", "model.py"} <= set(modules)
    assert all(re.fullmatch(r"\w+\.py", module) for module in modules)


def test_setup_counts_parse_and_build_only():
    counts = opcount.count("queens", "setup")
    assert counts == opcount.count("queens", "setup")
    functions = {name for _, name in counts}
    assert {"parse_model", "build", "post_diseq"} <= functions
    assert "label" not in functions and "Runtime.run_to_fixpoint" not in functions


def _two_comprehensions(first, second):
    return [i for i in range(first)], [i for i in range(second)]


def test_code_objects_that_share_a_name_add_up():
    """The two comprehensions of one function share a file and a
    qualname: their counts add up under that key, so running more of
    the first one counts more even when the second one runs last."""
    def key_count(first, second):
        counts = opcount.opcodes(lambda: _two_comprehensions(first, second), __file__)
        return counts[(Path(__file__).name, "_two_comprehensions.<locals>.<listcomp>")]

    assert key_count(3, 50) > key_count(0, 50) > key_count(0, 0) > 0
    assert key_count(3, 50) - key_count(0, 50) == key_count(3, 0) - key_count(0, 0)
