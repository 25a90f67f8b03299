"""Built-in benchmark models.

queens(n), magic(n), and holed_chain(k) are generated; the remaining
benchmarks ship as model files next to this module and are loaded
verbatim.  Parameterized names use call syntax: ``queens(25)``,
``magic(4)``, ``holed_chain(3)``; a generator refuses a size out of
range with a ValueError before it builds any record.

The n-queens model follows the three-disequality encoding: for each
pair of columns i < j with offset N = j - i it has the records
X_i != X_j, X_i != X_j + N, and X_i != X_j - N.  ``build`` posts one
agent per column, which holds every other column with its three
offsets.  holed_chain(k) is a family of binary equality chains over
holed domains on which arc propagation strictly beats interval
propagation; the interior holes are invisible to bound reasoning, so
under 'ic' the search must try (and fail) every misaligned value
while 'ac' solves it at the root.
"""

from __future__ import annotations

import re
from importlib import resources

from .domain import DEFAULT_MAX_WIDTH
from .linear import BinaryLinear, Diseq, NaryLinear
from .model import Distinct, Model, VarDecl, parse_model

FILE_BENCHMARKS = ("sendmoney", "alpha", "eq10", "eq20", "zebra")

# Benchmarks the ``bench`` subcommand runs.
BENCH_CORPUS = ("alpha", "eq10", "eq20", "magic(3)", "magic(4)",
                "queens(25)", "sendmoney", "zebra")

# queens(n) has 3*n*(n-1)/2 disequality records, so this allows n <= 447.
# queens(447) peaks at about 56 MB of resident memory once generated and
# 120 MB once built, which takes about 0.6 s (CPython 3.11 on x86-64 Linux).
MAX_QUEENS_RECORDS = 300_000


def queens_model(n: int) -> Model:
    if n < 1:
        raise ValueError("queens needs n >= 1")
    records = 3 * n * (n - 1) // 2
    if records > MAX_QUEENS_RECORDS:
        raise ValueError(f"queens({n}) needs {records} disequality records, more "
                         f"than the cap {MAX_QUEENS_RECORDS}")
    m = Model(f"queens({n})")
    for i in range(n):
        m.vars.append(VarDecl(f"q{i + 1}", 1, n))
    for i in range(n):
        for j in range(i + 1, n):
            offset = j - i
            m.constraints.append(Diseq(i, j, 0))
            m.constraints.append(Diseq(i, j, offset))
            m.constraints.append(Diseq(i, j, -offset))
    m.label_order = list(range(n))
    return m


def magic_model(n: int) -> Model:
    """n x n magic square: distinct entries 1..n*n, every row, column,
    and diagonal summing to n*(n*n+1)/2.  The published instances'
    exact formulation is not public; this is the standard one and
    counts may differ."""
    if n < 2:
        raise ValueError("magic needs n >= 2")
    if n * n > DEFAULT_MAX_WIDTH:  # the widest domain the model parser accepts
        raise ValueError(f"magic({n}) needs a domain {n * n} wide, more than the "
                         f"cap {DEFAULT_MAX_WIDTH}")
    total = n * (n * n + 1) // 2
    m = Model(f"magic({n})")
    for r in range(n):
        for c in range(n):
            m.vars.append(VarDecl(f"c{r + 1}{c + 1}", 1, n * n))
    idx = lambda r, c: r * n + c
    m.constraints.append(Distinct(tuple(range(n * n))))
    for r in range(n):
        m.constraints.append(NaryLinear(-total, tuple((1, idx(r, c)) for c in range(n))))
    for c in range(n):
        m.constraints.append(NaryLinear(-total, tuple((1, idx(r, c)) for r in range(n))))
    m.constraints.append(NaryLinear(-total, tuple((1, idx(i, i)) for i in range(n))))
    m.constraints.append(NaryLinear(-total, tuple((1, idx(i, n - 1 - i)) for i in range(n))))
    m.label_order = list(range(n * n))
    return m


def holed_chain_model(k: int) -> Model:
    """Equality chain over holed domains where arc propagation strictly
    beats interval propagation, with k sacrificial interior values.

    y ranges over 1..k+3 and the chain x1 = y + 1, x2 = x1 + 1 supports
    only y in {1, k+2, k+3}; the chain domains' holes are strictly
    interior, so bound reasoning cannot see them and the 'ic' search
    must try (and fail) each of the k unsupported values.  The two
    supported-but-wrong y values are killed by disequality pairs that
    wipe out a two-value helper variable, costing one backtrack at
    every level.  First solution: y = k+3.
    """
    if k < 1:
        raise ValueError("holed_chain needs k >= 1")
    n = k + 3
    if n > DEFAULT_MAX_WIDTH:
        raise ValueError(f"holed_chain({k}) needs a domain {n} wide, more than "
                         f"the cap {DEFAULT_MAX_WIDTH}")
    m = Model(f"holed_chain({k})")
    m.vars.append(VarDecl("y", 1, n))                      # 0
    x1_vals = (2, n, n + 1)
    m.vars.append(VarDecl("x1", 2, n + 1, x1_vals))        # 1
    x2_vals = tuple(v + 1 for v in x1_vals)
    m.vars.append(VarDecl("x2", 3, n + 2, x2_vals))        # 2
    m.vars.append(VarDecl("u1", 1, 2))                     # 3
    m.vars.append(VarDecl("u2", 1, 2))                     # 4
    m.constraints.append(BinaryLinear(1, 1, 1, 0, 1))      # x1 = y + 1
    m.constraints.append(BinaryLinear(1, 2, 1, 1, 1))      # x2 = x1 + 1
    # y = 1 wipes u1; y = n-1 wipes u2; other y values keep both alive
    m.constraints.append(Diseq(3, 0, 0))                   # u1 != y
    m.constraints.append(Diseq(3, 0, 1))                   # u1 != y + 1
    m.constraints.append(Diseq(4, 0, -(n - 2)))            # u2 != y - (n-2)
    m.constraints.append(Diseq(4, 0, -(n - 3)))            # u2 != y - (n-3)
    m.label_order = [0, 3, 4, 1, 2]
    return m


def _load_file(name: str) -> Model:
    path = resources.files(__package__).joinpath("models", f"{name}.model")
    return parse_model(path.read_text(encoding="utf-8"), name)


_CALL_RE = re.compile(r"^([a-z_]+)\((\d+)\)$")


def get_benchmark(name: str) -> Model:
    """Resolve a benchmark name, e.g. 'queens(8)' or 'zebra'."""
    call = _CALL_RE.match(name)
    if call:
        base, arg = call.group(1), int(call.group(2))
        if base == "queens":
            return queens_model(arg)
        if base == "magic":
            return magic_model(arg)
        if base == "holed_chain":
            return holed_chain_model(arg)
        raise KeyError(f"unknown parameterized benchmark {base!r}")
    if name in FILE_BENCHMARKS:
        return _load_file(name)
    raise KeyError(f"unknown benchmark {name!r}")
