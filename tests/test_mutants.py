"""The mutation list of ``tools/mutants.py`` against the source.

Running the mutations is the tool's job (``python tools/mutants.py``);
here each one's old text must still occur exactly once in its file, and
each killing test must still exist, so the list cannot rot silently.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
sys.modules["mutants"] = mutants  # dataclasses look their module up there
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutation", mutants.MUTATIONS, ids=lambda m: m.name)
def test_mutation_old_text_occurs_once(mutation):
    assert mutants.occurrences(mutation) == 1
    assert mutation.old != mutation.new
    for test in mutation.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file()
        assert not name or f"def {name}(" in (ROOT / path).read_text(encoding="utf-8")
