"""Declarative problem descriptions and the text format for them.

A model file is line-oriented; ``#`` starts a comment.  Lines:

    var <name> in <lo>..<hi>
    var <name> in {v1,v2,...}
    lin <c0> <a1>*<name1> <a2>*<name2> ... = 0
    eq <a>*<x> = <b>*<y> + <c>
    neq <x> <y> <c>
    alldistinct <name1> <name2> ...
    label <name1> <name2> ...

Every variable must be declared before use, duplicate declarations are
rejected, and exactly one label line is required.  Inside a Model,
constraints refer to variables by declaration index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from .alldistinct import AllDistinctPosting, Strategy, post_alldistinct
from .domain import DomainError, make_interval, make_set
from .linear import (
    BinaryLinear,
    ConsistencyLevel,
    Diseq,
    NaryLinear,
    post_binary,
    post_diseq,
    post_nary_forward,
    post_nary_hybrid,
    post_nary_unite,
)
from .oracle import DEFAULT_CAP, GroundModel
from .runtime import Runtime
from .search import (
    ALL_SOLUTIONS,
    FIRST_SOLUTION,
    LabelingSpec,
    SearchStats,
    UnboundVariableError,
    label,
)
from .store import Store


class ModelError(ValueError):
    """Syntax or semantic error in a model, with source location."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class VarDecl:
    name: str
    lo: int
    hi: int
    values: Optional[tuple[int, ...]] = None  # present for holed declarations


@dataclass(frozen=True)
class Distinct:
    """Model-level all-distinct; the strategy is a solver setting, not
    part of the model."""

    vars: tuple[int, ...]


@dataclass
class Model:
    name: str
    vars: list[VarDecl] = field(default_factory=list)
    constraints: list = field(default_factory=list)  # BinaryLinear | NaryLinear | Diseq | Distinct
    label_order: list[int] = field(default_factory=list)

    def var_index(self, name: str) -> int:
        for i, vd in enumerate(self.vars):
            if vd.name == name:
                return i
        raise KeyError(name)

    def to_ground(self, cap: int = DEFAULT_CAP) -> GroundModel:
        """Reference semantics: explicit domains plus evaluable
        predicates, for the enumeration oracle."""
        domains = []
        for vd in self.vars:
            domains.append(list(vd.values) if vd.values is not None
                           else list(range(vd.lo, vd.hi + 1)))
        constraints = []
        for con in self.constraints:
            if isinstance(con, BinaryLinear):
                constraints.append((
                    (con.x, con.y),
                    (lambda a, b, c: lambda vx, vy: a * vx == b * vy + c)(con.a, con.b, con.c),
                ))
            elif isinstance(con, NaryLinear):
                scope = tuple(x for _, x in con.terms)
                coeffs = tuple(a for a, _ in con.terms)
                constraints.append((
                    scope,
                    (lambda c, cs: lambda *vals: c + sum(a * v for a, v in zip(cs, vals)) == 0)(con.c, coeffs),
                ))
            elif isinstance(con, Diseq):
                constraints.append((
                    (con.x, con.y),
                    (lambda c: lambda vx, vy: vx != vy + c)(con.c),
                ))
            elif isinstance(con, Distinct):
                # pairwise form lets the enumerator check each pair as
                # soon as both variables are assigned
                for i in range(len(con.vars)):
                    for j in range(i + 1, len(con.vars)):
                        constraints.append((
                            (con.vars[i], con.vars[j]),
                            lambda vx, vy: vx != vy,
                        ))
            else:
                raise TypeError(f"unknown constraint record {con!r}")
        return GroundModel(domains, constraints, cap)


# -- parsing -------------------------------------------------------------------


def _parse_int(token: str, line_no: int, col: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ModelError(f"expected an integer, got {token!r}", line_no, col) from None


def _parse_term(token: str, line_no: int, col: int) -> tuple[int, str]:
    parts = token.split("*")
    if len(parts) != 2 or not parts[1]:
        raise ModelError(f"expected <coef>*<name>, got {token!r}", line_no, col)
    return _parse_int(parts[0], line_no, col), parts[1]


def parse_model(text: str, name: str = "model") -> Model:
    model = Model(name)
    index: dict[str, int] = {}
    label_line = None

    def resolve(tok: str, line_no: int, col: int) -> int:
        if tok not in index:
            raise ModelError(f"undeclared variable {tok!r}", line_no, col)
        return index[tok]

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        cols = []
        pos = 0
        for tok in tokens:
            pos = line.index(tok, pos)
            cols.append(pos + 1)
            pos += len(tok)
        head = tokens[0]

        if head == "var":
            if len(tokens) != 4 or tokens[2] != "in":
                raise ModelError("expected: var <name> in <domain>", line_no, cols[0])
            vname = tokens[1]
            if vname in index:
                raise ModelError(f"duplicate declaration of {vname!r}", line_no, cols[1])
            spec = tokens[3]
            try:
                if spec.startswith("{") and spec.endswith("}"):
                    vals = tuple(sorted({_parse_int(v, line_no, cols[3])
                                         for v in spec[1:-1].split(",") if v}))
                    if not vals:
                        raise ModelError("empty value set", line_no, cols[3])
                    dom = make_set(vals)
                elif ".." in spec:
                    lo_s, hi_s = spec.split("..", 1)
                    lo = _parse_int(lo_s, line_no, cols[3])
                    hi = _parse_int(hi_s, line_no, cols[3])
                    dom = make_interval(lo, hi)
                    vals = None
                else:
                    raise ModelError(f"bad domain spec {spec!r}", line_no, cols[3])
            except DomainError as exc:
                raise ModelError(str(exc), line_no, cols[3]) from None
            if vals is not None and dom.is_interval():
                vals = None  # contiguous set normalizes to an interval
            index[vname] = len(model.vars)
            model.vars.append(VarDecl(vname, dom.lo, dom.hi, vals))

        elif head == "lin":
            if len(tokens) < 5 or tokens[-2] != "=" or tokens[-1] != "0":
                raise ModelError("expected: lin <c0> <a>*<name> ... = 0", line_no, cols[0])
            c0 = _parse_int(tokens[1], line_no, cols[1])
            terms = []
            for tok, col in zip(tokens[2:-2], cols[2:-2]):
                a, vname = _parse_term(tok, line_no, col)
                if a == 0:
                    raise ModelError("zero coefficient", line_no, col)
                terms.append((a, resolve(vname, line_no, col)))
            if not terms:
                raise ModelError("linear constraint needs at least one term",
                                 line_no, cols[0])
            model.constraints.append(NaryLinear(c0, tuple(terms)))

        elif head == "eq":
            if len(tokens) != 6 or tokens[2] != "=" or tokens[4] != "+":
                raise ModelError("expected: eq <a>*<x> = <b>*<y> + <c>",
                                 line_no, cols[0])
            a, xname = _parse_term(tokens[1], line_no, cols[1])
            b, yname = _parse_term(tokens[3], line_no, cols[3])
            c = _parse_int(tokens[5], line_no, cols[5])
            if a < 1 or b < 1:
                raise ModelError("eq coefficients must be positive", line_no, cols[1])
            model.constraints.append(BinaryLinear(
                a, resolve(xname, line_no, cols[1]),
                b, resolve(yname, line_no, cols[3]), c))

        elif head == "neq":
            if len(tokens) != 4:
                raise ModelError("expected: neq <x> <y> <c>", line_no, cols[0])
            model.constraints.append(Diseq(
                resolve(tokens[1], line_no, cols[1]),
                resolve(tokens[2], line_no, cols[2]),
                _parse_int(tokens[3], line_no, cols[3])))

        elif head == "alldistinct":
            if len(tokens) < 2:
                raise ModelError("alldistinct needs at least one variable",
                                 line_no, cols[0])
            model.constraints.append(Distinct(tuple(
                resolve(tok, line_no, col)
                for tok, col in zip(tokens[1:], cols[1:]))))

        elif head == "label":
            if label_line is not None:
                raise ModelError("duplicate label line", line_no, cols[0])
            if len(tokens) < 2:
                raise ModelError("label needs at least one variable", line_no, cols[0])
            seen = set()
            order = []
            for tok, col in zip(tokens[1:], cols[1:]):
                i = resolve(tok, line_no, col)
                if i in seen:
                    raise ModelError(f"variable {tok!r} labeled twice", line_no, col)
                seen.add(i)
                order.append(i)
            label_line = order

        else:
            raise ModelError(f"unknown directive {head!r}", line_no, cols[0])

    if label_line is None:
        raise ModelError("missing required label line")
    model.label_order = label_line
    return model


def format_model(model: Model) -> str:
    """Canonical text for a model; parse(format_model(m)) == m."""
    out = []
    for vd in model.vars:
        if vd.values is not None:
            out.append(f"var {vd.name} in {{{','.join(str(v) for v in vd.values)}}}")
        else:
            out.append(f"var {vd.name} in {vd.lo}..{vd.hi}")
    names = [vd.name for vd in model.vars]
    for con in model.constraints:
        if isinstance(con, BinaryLinear):
            out.append(f"eq {con.a}*{names[con.x]} = {con.b}*{names[con.y]} + {con.c}")
        elif isinstance(con, NaryLinear):
            terms = " ".join(f"{a}*{names[x]}" for a, x in con.terms)
            out.append(f"lin {con.c} {terms} = 0")
        elif isinstance(con, Diseq):
            out.append(f"neq {names[con.x]} {names[con.y]} {con.c}")
        elif isinstance(con, Distinct):
            out.append("alldistinct " + " ".join(names[x] for x in con.vars))
        else:
            raise TypeError(f"unknown constraint record {con!r}")
    out.append("label " + " ".join(names[i] for i in model.label_order))
    return "\n".join(out) + "\n"


# -- solving --------------------------------------------------------------------


@dataclass
class SolverConfig:
    """Solver settings.  level 'ac' means arc consistency for binary
    constraints and the hybrid scheme for n-ary ones; 'ic' keeps
    interval consistency everywhere; 'fc' is plain forward checking."""

    level: str = "ac"
    alldistinct: str = "linear"
    mode: str = FIRST_SOLUTION
    trace: bool = False
    coalesce: bool = True

    def __post_init__(self):
        if self.level not in ("fc", "ic", "ac"):
            raise ValueError(f"unknown level {self.level!r}")
        if self.alldistinct not in ("naive", "linear", "wac"):
            raise ValueError(f"unknown alldistinct strategy {self.alldistinct!r}")
        if self.mode not in (FIRST_SOLUTION, ALL_SOLUTIONS):
            raise ValueError(f"unknown mode {self.mode!r}")


_BINARY_LEVEL = {
    "fc": ConsistencyLevel.FORWARD_CHECKING,
    "ic": ConsistencyLevel.INTERVAL,
    "ac": ConsistencyLevel.ARC,
}

_NARY_POST = {
    "fc": post_nary_forward,
    "ic": post_nary_unite,
    "ac": post_nary_hybrid,
}

_DISTINCT_STRATEGY = {
    "naive": Strategy.NAIVE_PAIRWISE,
    "linear": Strategy.LINEAR_SPACE,
    "wac": Strategy.WEAK_AC,
}


def build(model: Model, config: SolverConfig = SolverConfig(), *,
          queue_policy: str = "fifo", queue_seed: Optional[int] = None,
          trace_stream=None) -> tuple[Store, Runtime, bool]:
    """Create a store and runtime for the model and post everything.
    The returned flag is False when posting already failed; root
    propagation (run_to_fixpoint) is the caller's next step."""
    store = Store()
    rt = Runtime(store, coalescing=config.coalesce, queue_policy=queue_policy,
                 queue_seed=queue_seed,
                 trace=trace_stream if config.trace else None)
    for vd in model.vars:
        dom = make_set(vd.values) if vd.values is not None else make_interval(vd.lo, vd.hi)
        store.new_var(dom, vd.name)
    for con in model.constraints:
        if isinstance(con, BinaryLinear):
            ok = post_binary(rt, con, _BINARY_LEVEL[config.level])
        elif isinstance(con, NaryLinear):
            ok = _NARY_POST[config.level](rt, con)
        elif isinstance(con, Diseq):
            ok = post_diseq(rt, con.x, con.y, con.c)
        elif isinstance(con, Distinct):
            ok = post_alldistinct(rt, AllDistinctPosting(
                con.vars, _DISTINCT_STRATEGY[config.alldistinct]))
        else:
            raise TypeError(f"unknown constraint record {con!r}")
        if not ok:
            return store, rt, False
    return store, rt, True


@dataclass
class SolveResult:
    stats: SearchStats
    solutions: list[tuple]
    root_failed: bool
    time_ms: int = 0

    def named_solutions(self, model: Model) -> list[dict[str, int]]:
        names = [vd.name for vd in model.vars]
        return [dict(zip(names, sol)) for sol in self.solutions]


def solve_model(model: Model, config: SolverConfig = SolverConfig(), *,
                queue_policy: str = "fifo", queue_seed: Optional[int] = None,
                trace_stream=None) -> SolveResult:
    """Post, propagate to the root fixpoint, and label."""
    started = time.perf_counter()
    store, rt, ok = build(model, config, queue_policy=queue_policy,
                          queue_seed=queue_seed, trace_stream=trace_stream)
    if ok:
        ok = rt.run_to_fixpoint()
    if not ok:
        stats = SearchStats(backtracks=0, activations=rt.activations, solutions=0)
        elapsed = int((time.perf_counter() - started) * 1000)
        return SolveResult(stats, [], True, elapsed)
    try:
        stats, solutions = label(rt, model.label_order, LabelingSpec(mode=config.mode))
    except UnboundVariableError as exc:
        raise ModelError(str(exc)) from None
    elapsed = int((time.perf_counter() - started) * 1000)
    return SolveResult(stats, solutions, False, elapsed)
