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
from functools import partial
from typing import Optional, Sequence

from .alldistinct import Strategy, post_alldistinct
from .domain import DomainError, make_interval, make_set
from .linear import (
    BinaryLinear,
    ConsistencyLevel,
    Diseq,
    NaryLinear,
    diseq_table,
    post_binary,
    post_diseq,
    post_nary,
)
from .oracle import (
    GroundModel,
    check_arc_consistent,
    check_interval_consistent,
    check_weak_arc_consistent,
)
from .runtime import LimitReached, Runtime, check_deadline
from .search import UnboundVariableError, label
from .store import Record, Store


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

    def to_ground(self) -> GroundModel:
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
        return GroundModel(domains, constraints)


def fixpoint_violations(model: Model, domains: Sequence[Sequence[int]],
                        config: SolverConfig,
                        deadline: Optional[float] = None) -> dict[str, list[int]]:
    """The predicates that define config's fixpoint, each with the
    indexes of the model's constraints that fail it on ``domains`` (the
    values of each variable, by declaration index).  Keys, in order:
    "interval" (every linear equality) at ic and ac; "arc" (every binary
    equality, and every sum that collapsed_pair turns into a pair) at
    ac; "weak arc" (every all_distinct) under wac.  An fc config without
    wac has no defining predicate and gives {}.  Past ``deadline`` (see
    ``check_deadline``), read before each constraint and before each
    row of the weak-arc comparisons, it raises ``LimitReached``."""
    level = ConsistencyLevel(config.level)
    checks = {}
    if level is not ConsistencyLevel.FORWARD_CHECKING:
        checks["interval"] = _interval_consistent
    if level is ConsistencyLevel.ARC:
        checks["arc"] = _arc_consistent
    if Strategy(config.alldistinct) is Strategy.WEAK_AC:
        checks["weak arc"] = partial(_weak_arc_consistent,
                                     tick=partial(check_deadline, deadline))
    violations = {}
    for key, check in checks.items():
        failed = violations[key] = []
        for i, con in enumerate(model.constraints):
            check_deadline(deadline)
            if not check(con, domains):
                failed.append(i)
    return violations


def collapsed_pair(con: NaryLinear, domains: Sequence[Sequence[int]]):
    """The binary equality the hybrid scheme keeps arc consistent for an
    n-ary sum once exactly two of its terms, on two distinct variables,
    have more than one value: (c', (a1, x1), (a2, x2)) for
    c' + a1*X1 + a2*X2 = 0, with the singleton terms folded into c'.
    None for any other sum."""
    c = con.c
    free = []
    for a, x in con.terms:
        if len(domains[x]) == 1:
            c += a * domains[x][0]
        else:
            free.append((a, x))
    if len(free) != 2 or free[0][1] == free[1][1]:
        return None
    return c, free[0], free[1]


def _interval_consistent(con, domains) -> bool:
    if isinstance(con, NaryLinear):
        return check_interval_consistent(
            con.c, [a for a, _ in con.terms], [domains[x] for _, x in con.terms])
    if isinstance(con, BinaryLinear):
        return check_interval_consistent(
            con.c, [-con.a, con.b], [domains[con.x], domains[con.y]])
    return True


def _arc_consistent(con, domains) -> bool:
    if isinstance(con, BinaryLinear):
        a, b, c = con.a, con.b, con.c
        return check_arc_consistent(lambda vx, vy: a * vx == b * vy + c,
                                    domains[con.x], domains[con.y])
    pair = collapsed_pair(con, domains) if isinstance(con, NaryLinear) else None
    if pair is None:
        return True
    c, (a1, x1), (a2, x2) = pair
    return check_arc_consistent(lambda v1, v2: c + a1 * v1 + a2 * v2 == 0,
                                domains[x1], domains[x2])


def _weak_arc_consistent(con, domains, tick=None) -> bool:
    return (not isinstance(con, Distinct)
            or check_weak_arc_consistent([domains[x] for x in con.vars], tick))


# -- parsing -------------------------------------------------------------------


class _TokenError(Exception):
    """A model error, its str the message, at one token of the line
    being parsed, given by the token's index: ``parse_model`` finds its
    column only then."""

    def __init__(self, message: str, token: int):
        super().__init__(message)
        self.token = token


def _column(line: str, tokens: list[str], i: int) -> int:
    """The 1-based column of tokens[i], the line's i-th token."""
    pos = 0
    for tok in tokens[:i]:
        pos = line.index(tok, pos) + len(tok)
    return line.index(tokens[i], pos) + 1


def _parse_int(token: str, i: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise _TokenError(f"expected an integer, got {token!r}", i) from None


def _parse_term(token: str, i: int) -> tuple[int, str]:
    parts = token.split("*")
    if len(parts) != 2 or not parts[1]:
        raise _TokenError(f"expected <coef>*<name>, got {token!r}", i)
    return _parse_int(parts[0], i), parts[1]


def _resolve(index: dict[str, int], tok: str, i: int) -> int:
    if tok not in index:
        raise _TokenError(f"undeclared variable {tok!r}", i)
    return index[tok]


def parse_model(text: str, name: str = "model") -> Model:
    model = Model(name)
    index: dict[str, int] = {}
    label_line = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        try:
            label_line = _parse_line(model, index, tokens, label_line)
        except _TokenError as exc:
            raise ModelError(str(exc), line_no, _column(line, tokens, exc.token)) from None

    if label_line is None:
        raise ModelError("missing required label line")
    model.label_order = label_line
    return model


def _parse_line(model: Model, index: dict[str, int], tokens: list[str],
                label_line: Optional[list[int]]) -> Optional[list[int]]:
    """Add one line's declaration or constraint to the model; return
    the label order, the line's if it is the label line."""
    head = tokens[0]

    if head == "var":
        if len(tokens) != 4 or tokens[2] != "in":
            raise _TokenError("expected: var <name> in <domain>", 0)
        vname = tokens[1]
        if vname in index:
            raise _TokenError(f"duplicate declaration of {vname!r}", 1)
        spec = tokens[3]
        try:
            if spec.startswith("{") and spec.endswith("}"):
                vals = tuple(sorted({_parse_int(v, 3) for v in spec[1:-1].split(",") if v}))
                if not vals:
                    raise _TokenError("empty value set", 3)
                dom = make_set(vals)
            elif ".." in spec:
                lo_s, hi_s = spec.split("..", 1)
                dom = make_interval(_parse_int(lo_s, 3), _parse_int(hi_s, 3))
                vals = None
            else:
                raise _TokenError(f"bad domain spec {spec!r}", 3)
        except DomainError as exc:
            raise _TokenError(str(exc), 3) from None
        if vals is not None and dom.is_interval():
            vals = None  # contiguous set normalizes to an interval
        index[vname] = len(model.vars)
        model.vars.append(VarDecl(vname, dom.lo, dom.hi, vals))

    elif head == "lin":
        if len(tokens) < 5 or tokens[-2] != "=" or tokens[-1] != "0":
            raise _TokenError("expected: lin <c0> <a>*<name> ... = 0", 0)
        c0 = _parse_int(tokens[1], 1)
        terms = []
        for i in range(2, len(tokens) - 2):
            a, vname = _parse_term(tokens[i], i)
            if a == 0:
                raise _TokenError("zero coefficient", i)
            terms.append((a, _resolve(index, vname, i)))
        model.constraints.append(NaryLinear(c0, tuple(terms)))

    elif head == "eq":
        if len(tokens) != 6 or tokens[2] != "=" or tokens[4] != "+":
            raise _TokenError("expected: eq <a>*<x> = <b>*<y> + <c>", 0)
        a, xname = _parse_term(tokens[1], 1)
        b, yname = _parse_term(tokens[3], 3)
        c = _parse_int(tokens[5], 5)
        if a < 1 or b < 1:
            raise _TokenError("eq coefficients must be positive", 1)
        model.constraints.append(BinaryLinear(a, _resolve(index, xname, 1),
                                              b, _resolve(index, yname, 3), c))

    elif head == "neq":
        if len(tokens) != 4:
            raise _TokenError("expected: neq <x> <y> <c>", 0)
        model.constraints.append(Diseq(_resolve(index, tokens[1], 1),
                                       _resolve(index, tokens[2], 2),
                                       _parse_int(tokens[3], 3)))

    elif head == "alldistinct":
        if len(tokens) < 2:
            raise _TokenError("alldistinct needs at least one variable", 0)
        model.constraints.append(Distinct(tuple(
            _resolve(index, tokens[i], i) for i in range(1, len(tokens)))))

    elif head == "label":
        if label_line is not None:
            raise _TokenError("duplicate label line", 0)
        if len(tokens) < 2:
            raise _TokenError("label needs at least one variable", 0)
        seen = set()
        order = []
        for i in range(1, len(tokens)):
            x = _resolve(index, tokens[i], i)
            if x in seen:
                raise _TokenError(f"variable {tokens[i]!r} labeled twice", i)
            seen.add(x)
            order.append(x)
        return order

    else:
        raise _TokenError(f"unknown directive {head!r}", 0)
    return label_line


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


FIRST_SOLUTION = "first"
ALL_SOLUTIONS = "all"


@dataclass
class SolverConfig:
    """Solver settings, the one place they are checked.  level 'ac' means
    arc consistency for binary constraints and the hybrid scheme for
    n-ary ones; 'ic' keeps interval consistency everywhere; 'fc' is plain
    forward checking.  mode is FIRST_SOLUTION or ALL_SOLUTIONS.
    max_backtracks and time_limit (seconds from the start of the solve)
    bound the search, and time_limit bounds posting and every
    fixpoint, the root's included; None leaves it unbounded."""

    level: str = "ac"
    alldistinct: str = "linear"
    mode: str = FIRST_SOLUTION
    max_backtracks: Optional[int] = None
    time_limit: Optional[float] = None

    def __post_init__(self):
        ConsistencyLevel(self.level)  # an unknown value raises ValueError
        Strategy(self.alldistinct)
        if self.mode not in (FIRST_SOLUTION, ALL_SOLUTIONS):
            raise ValueError(f"unknown mode {self.mode!r}")

    def deadline(self, started: float) -> Optional[float]:
        """The ``time.perf_counter()`` reading at which the time limit
        of a solve started at ``started`` runs out; None without one."""
        return None if self.time_limit is None else started + self.time_limit


def _diseq_partners(constraints, deadline: Optional[float] = None
                    ) -> dict[int, dict[int, list[int]]]:
    """The partners of each variable's exclusion agent, {z: offsets}
    in order of first mention: X != Y + c gives X's agent offset -c on
    Y and Y's agent offset +c on X.  A repeated offset is dropped, and
    so is X != X + c, which holds iff c != 0 (build checks that).  A
    large model has hundreds of thousands of records, so ``deadline``
    (see ``check_deadline``) is read before each block of 4,096."""
    offsets: dict[int, dict[int, list[int]]] = {}
    for start in range(0, len(constraints), 4096):
        check_deadline(deadline)
        for con in constraints[start:start + 4096]:
            if not isinstance(con, Diseq) or con.x == con.y:
                continue
            for x, z, d in ((con.x, con.y, -con.c), (con.y, con.x, con.c)):
                ds = offsets.setdefault(x, {}).setdefault(z, [])
                if d not in ds:
                    ds.append(d)
    return offsets


def build(model: Model, config: SolverConfig = SolverConfig(), *,
          queue_policy: str = "fifo", queue_seed: Optional[int] = None,
          trace_stream=None) -> tuple[Store, Runtime, bool]:
    """Create a store and runtime for the model and post everything.
    Each equality and each n-ary sum becomes at most one agent at the
    config's level.  Each variable of a disequality gets one exclusion
    agent ``neq(_x)`` for all its disequalities, posted at the place of
    its first record; X != X + 0 fails there.  The returned flag
    is False when posting already failed; root propagation
    (run_to_fixpoint) is the caller's next step.  A trace_stream gets
    one line per activation.  The config's time limit counts from the
    call and is the runtime's deadline before anything is posted, so
    posting past it raises ``LimitReached``; the disequalities' grouping
    and each exclusion agent's posting read it, too."""
    rt = _runtime(config, time.perf_counter(), queue_policy, queue_seed, trace_stream)
    return rt.store, rt, _post(rt, model, config)


def _runtime(config: SolverConfig, started: float, queue_policy: str,
             queue_seed: Optional[int], trace_stream) -> Runtime:
    """A runtime on a new store, its deadline the config's time limit
    counted from ``started``."""
    rt = Runtime(Store(), queue_policy=queue_policy, queue_seed=queue_seed,
                 trace=trace_stream)
    rt.deadline = config.deadline(started)
    return rt


def _post(rt: Runtime, model: Model, config: SolverConfig) -> bool:
    """Make the model's variables and post its constraints (see
    ``build``); False when posting failed."""
    store = rt.store
    level = ConsistencyLevel(config.level)
    strategy = Strategy(config.alldistinct)
    for vd in model.vars:
        dom = make_set(vd.values) if vd.values is not None else make_interval(vd.lo, vd.hi)
        store.new_var(dom, vd.name)
    diseqs = _diseq_partners(model.constraints, rt.deadline)
    # one record for all neq agents if each variable partners every other
    whole = all(len(partners) == len(diseqs) - 1 for partners in diseqs.values())
    shared = Record(tuple(diseqs)) if whole else None
    for con in model.constraints:
        if isinstance(con, BinaryLinear):
            ok = post_binary(rt, con, level)
        elif isinstance(con, NaryLinear):
            ok = post_nary(rt, con, level)
        elif isinstance(con, Diseq):
            ok = con.x != con.y or con.c != 0
            for x in (con.x, con.y):
                if ok and x in diseqs:  # not yet posted
                    check_deadline(rt.deadline)
                    partners = diseqs.pop(x)
                    ok = post_diseq(rt, x, shared or Record((x, *partners)),
                                    diseq_table(store, x, partners), f"neq(_{x})")
        elif isinstance(con, Distinct):
            ok = post_alldistinct(rt, con.vars, strategy)
        else:
            raise TypeError(f"unknown constraint record {con!r}")
        if not ok:
            return False
    return True


@dataclass
class SolveResult:
    solutions: list[tuple]
    backtracks: int
    activations: int
    queued: int  # event records queued; merged bound posts queue none
    walked: int  # watcher entries walked: the list lengths of the records taken
    agents: int  # agents after posting, before root propagation
    time_ms: int
    limit: Optional[str]  # the config's limit that cut the search short
    root_failed: bool


def solve_model(model: Model, config: SolverConfig = SolverConfig(), *,
                queue_policy: str = "fifo", queue_seed: Optional[int] = None,
                trace_stream=None) -> SolveResult:
    """Post, propagate to the root fixpoint, and label.  A search cut
    short by a limit of the config names it in ``SolveResult.limit``;
    the time limit can cut posting and root propagation short, too."""
    started = time.perf_counter()
    rt = _runtime(config, started, queue_policy, queue_seed, trace_stream)
    agents = 0
    try:
        ok = _post(rt, model, config)
        agents = len(rt.agents)
        ok = ok and rt.run_to_fixpoint()
    except LimitReached as exc:
        return _result(rt, started, agents, [], 0, str(exc), False)
    return label_from_root(model, config, rt, ok, started, agents)


def label_from_root(model: Model, config: SolverConfig, rt: Runtime, root_ok: bool,
                    started: float, agents: int = 0) -> SolveResult:
    """Label the model from the runtime's root fixpoint; root_ok False
    means posting or root propagation failed.  The time limit counts
    from ``started`` (a ``time.perf_counter()`` reading); agents is the
    count the caller saw after posting."""
    backtracks, limit, solutions = 0, None, []
    if root_ok:
        try:
            stats, solutions = label(rt, model.label_order,
                                     all_solutions=config.mode == ALL_SOLUTIONS,
                                     max_backtracks=config.max_backtracks,
                                     deadline=config.deadline(started))
        except UnboundVariableError as exc:
            raise ModelError(str(exc)) from None
        backtracks, limit = stats.backtracks, stats.limit
    return _result(rt, started, agents, solutions, backtracks, limit, not root_ok)


def _result(rt, started, agents, solutions, backtracks, limit, root_failed) -> SolveResult:
    elapsed = int((time.perf_counter() - started) * 1000)
    return SolveResult(solutions, backtracks, rt.activations, rt.clock, rt.walked, agents,
                       elapsed, limit, root_failed)
