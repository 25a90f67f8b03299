"""Propagators for linear equality and disequality constraints.

Every linear equality is a sum c + sum(a_i * X_i) = 0, one agent at
each of three consistency levels: forward checking waits until one
variable is free and solves for it; interval runs a two-phase interval
reducer on every wake, its body picked at posting from the
coefficients (a unit body when all are 1, else a general one, both
making the same store calls); arc (the hybrid scheme) runs that
reducer while more than two variables are free and then switches to a
pair rule in the same agent, which keeps the two that are left arc
consistent.  A binary equality a*X = b*Y + c is the sum
-c + a*X - b*Y = 0.  At interval and arc level a sum of two terms on
distinct variables (at arc, of two free terms at posting) is the pair
rule and the commitment alone; at interval level the rule narrows
bounds but does not revise.  No agent is spawned during search.

Disequalities are forward checked by one exclusion agent per variable,
the paper's ``outof(X, Left, Right)`` generalised to offsets: it holds
a table of X's partners with their offsets and, once X is bound,
excludes every implied value from them.  Like the paper's agents, which
share their lists, the agents of one group share a trailed record of
the variables whose agent has not committed, and a commit walks only
those.  The offsets of a partner are kept as a value mask, so the
commit tests a free partner with one shift and one AND against its bit
vector, and removes every value hit with one store call.  Every
all_distinct strategy posts the same agent.

Each sum is checked at posting against a signed 64-bit budget,
|c| + sum(|a_i| * max|X_i|), which bounds every intermediate value its
propagators compute; a model that could exceed it is rejected with
CapacityError before any agent is created.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .domain import members
from .runtime import Rule, Runtime, check_deadline
from .store import BOUND, DOM, GENERATED, INS, Record

INT64_MAX = (1 << 63) - 1


class CapacityError(ValueError):
    """Posting would allow intermediate values outside the 64-bit budget."""


class ConsistencyLevel(enum.Enum):
    FORWARD_CHECKING = "fc"
    INTERVAL = "ic"
    ARC = "ac"


@dataclass(frozen=True)
class BinaryLinear:
    """a*X = b*Y + c with positive a and b."""

    a: int
    x: int
    b: int
    y: int
    c: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("binary constraint coefficients must be positive")


@dataclass(frozen=True)
class NaryLinear:
    """c + sum(a_i * X_i) = 0 with non-zero coefficients."""

    c: int
    terms: tuple[tuple[int, int], ...]  # (coefficient, var id)

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(tuple(t) for t in self.terms))
        if not self.terms:
            raise ValueError("n-ary constraint needs at least one term")
        if any(a == 0 for a, _ in self.terms):
            raise ValueError("zero coefficient in n-ary constraint")


@dataclass(frozen=True)
class Diseq:
    """X != Y + c."""

    x: int
    y: int
    c: int = 0


def ceil_div(p: int, q: int) -> int:
    """Smallest integer >= p/q, exact for negative p.  q must be >= 1."""
    return -((-p) // q)


def _check_capacity(store, c, terms, kind) -> None:
    worst = abs(c)
    for a, x in terms:
        var = store.vars[x]
        worst += abs(a) * max(abs(var.lo), abs(var.hi))
    if worst > INT64_MAX:
        raise CapacityError(f"{kind} constraint exceeds 64-bit budget ({worst})")


def _true(_event) -> bool:
    return True


# -- binary equations ------------------------------------------------------------


def post_binary(rt: Runtime, bc: BinaryLinear, level: ConsistencyLevel) -> bool:
    """Post a*X = b*Y + c as the sum -c + a*X - b*Y = 0 (see
    ``post_nary``), under the sum's 64-bit budget; its agent, if any, is
    named ``eq_fwd``, ``eq_ic`` or ``eq_ac`` after the equation.  X == Y
    is solved at once, as (a - b)*X = c.  Returns False on
    inconsistency found at posting."""
    c, terms = -bc.c, ((bc.a, bc.x), (-bc.b, bc.y))
    if bc.x == bc.y:
        return _solve(rt.store, c, terms)
    _check_capacity(rt.store, c, terms, "binary")
    return _post_sum(rt, c, terms, level, binary=True)


def _narrow_from(store, x, a, vy, b, c) -> bool:
    """Keep X of a*X = b*Y + c within the range Y's bounds allow (vy is
    Y's variable)."""
    if b > 0:
        t_lo = b * vy.lo + c
        t_hi = b * vy.hi + c
    else:
        t_lo = b * vy.hi + c
        t_hi = b * vy.lo + c
    return store.intersect(x, ceil_div(t_lo, a), t_hi // a)


def _revise(store, x, vx, a, vy, b, c, deadline) -> bool:
    """Drop the values of X (variable vx) of a*X = b*Y + c that have no
    support in Y (variable vy, another variable).  X's members are read
    once, before the first exclusion narrows them in place; Y does not
    change meanwhile.  The pass visits every member of X, and at
    posting no fixpoint reads the clock, so it first checks
    ``deadline`` (see ``check_deadline``)."""
    check_deadline(deadline)
    y_lo = vy.lo
    y_hi = vy.hi
    y_bits = vy.bits
    for val in members(vx.lo, vx.hi, vx.bits):
        q, r = divmod(a * val - c, b)
        if r or q < y_lo or q > y_hi or (y_bits is not None and not (y_bits >> (q - y_lo)) & 1):
            if not store.exclude(x, val):
                return False
    return True


def _fold(vars_, c, terms):
    """The constant of c + sum(a_i * X_i) with the bound terms folded
    in, and the free terms."""
    free = []
    for a, x in terms:
        var = vars_[x]
        if var.count != 1:
            free.append((a, x))
        else:
            c += a * var.lo
    return c, free


def _solve(store, c, terms) -> bool:
    """c + sum(a_i * X_i) = 0 whose free terms share one variable X:
    check the ground sum, or bind X to the value that solves it."""
    k, free = _fold(store.vars, c, terms)
    a = 0
    for b, x in free:
        a += b
    if a == 0:
        return k == 0
    q, r = divmod(-k, a)
    return r == 0 and store.bind(x, q)


class _Pair:
    """k + a1*X + a2*Y = 0 over two distinct variables, given as k and
    its two terms, kept as a*X = b*Y + c with a >= 1 and solved for Y as
    ma*Y = mb*X + mc with ma >= 1: the state and the steps of a pair
    rule.  Its str is the equation as agent names show it."""

    __slots__ = ("store", "a", "x", "b", "y", "c", "ma", "mb", "mc", "vx", "vy")

    def __init__(self, store, k, terms):
        (a, x), (b, y) = terms
        b, c = -b, -k
        if a < 0:
            a, b, c = -a, -b, -c
        self.store = store
        self.a, self.x, self.b, self.y, self.c = a, x, b, y, c
        self.ma, self.mb, self.mc = (b, a, -c) if b > 0 else (-b, -a, c)
        self.vx = store.vars[x]
        self.vy = store.vars[y]

    def __str__(self):
        return f"{self.a}*_{self.x}={self.b}*_{self.y}+{self.c}"

    def narrow(self) -> bool:
        """Narrow each side to the range the other side's bounds allow."""
        store = self.store
        return (_narrow_from(store, self.x, self.a, self.vy, self.b, self.c)
                and _narrow_from(store, self.y, self.ma, self.vx, self.mb, self.mc))

    def revise(self, deadline) -> bool:
        """Revise X against Y, then Y against X, each half first
        checking ``deadline``."""
        store = self.store
        return (_revise(store, self.x, self.vx, self.a, self.vy, self.b, self.c, deadline)
                and _revise(store, self.y, self.vy, self.ma, self.vx, self.mb, self.mc,
                            deadline))

    def step(self, event) -> bool:
        """One wake on a bound or dom event of X or Y.  A bound event
        narrows the other side to the range the moved bounds allow; a
        dom event excludes the excluded value's counterpart, in constant
        time."""
        if event.kind == DOM:
            if event.var == self.x:
                q, r = divmod(self.mb * event.value + self.mc, self.ma)
                return r != 0 or self.store.exclude(self.y, q)
            q, r = divmod(self.b * event.value + self.c, self.a)
            return r != 0 or self.store.exclude(self.x, q)
        if event.var == self.x:
            return _narrow_from(self.store, self.y, self.ma, self.vx, self.mb, self.mc)
        return _narrow_from(self.store, self.x, self.a, self.vy, self.b, self.c)


# -- disequality ---------------------------------------------------------------


def diseq_table(store, x: int, partners) -> dict:
    """X's partner table: {Z: (Z's variable, offsets, min(offsets),
    mask)} for each Z -> offsets of ``partners``, offset d meaning Z !=
    X + d and the mask having bit d - min(offsets) set.  An offset
    outside [lo_z - hi_x, hi_z - lo_x] can never bar a value of Z, since
    domains only shrink, so it is dropped, which keeps the commit's
    shift within the domain widths; a partner left without offsets has
    mask 0."""
    vars_ = store.vars
    vx = vars_[x]
    table = {}
    for z, offsets in partners.items():
        vz = vars_[z]
        reach_lo, reach_hi = vz.lo - vx.hi, vz.hi - vx.lo
        dmin = min(offsets)
        if dmin < reach_lo or max(offsets) > reach_hi:
            offsets = [d for d in offsets if reach_lo <= d <= reach_hi]
            dmin = min(offsets, default=0)
        mask = 0
        for d in offsets:
            mask |= 1 << (d - dmin)
        table[z] = (vz, tuple(offsets), dmin, mask)
    return table


def post_diseq(rt: Runtime, x: int, record: Record, table: dict, name: str,
               reduce=None) -> bool:
    """Spawn X's forward-checking exclusion agent.  ``record.live`` is
    the tuple of the variables of X's group, X among them, whose agent
    has not committed; ``table`` (see ``diseq_table``) has an entry for
    every other one: Z != X + d for each of Z's offsets d.  The agent
    sleeps on ins of X.  Once X is bound to v it drops X from the record
    under the trail, bars v + d from each live partner in order, and
    ends.  Skipping a committed partner is exact: a group holds each
    disequality both ways, so that partner's commit already barred what
    conflicts with it.  A bound partner is tested by its value.  A free
    one with a single offset (mask 1) is tested, by its fields, for the
    one value barred, and gets one ``Store.exclude`` only if that value
    is a member; else its mask, shifted to its ``lo``, is ANDed with its
    members and, if any is hit, one ``Store.remove_bits`` call removes
    them all.  So the store is called only for values that go.  With
    ``reduce`` it also wakes on bound and dom of X and runs ``reduce``
    on each wake and once at generation."""
    store = rt.store
    vx = store.vars[x]
    exclude_one = store.exclude
    remove_bits = store.remove_bits

    def free():
        return vx.count != 1

    def exclude(_event):
        v = vx.lo
        elements = record.live
        store.save_record(record)
        i = elements.index(x)
        rest = record.live = elements[:i] + elements[i + 1:]
        for z in rest:
            vz, offsets, dmin, mask = table[z]
            if vz.count == 1:
                if vz.lo - v in offsets:
                    return False
                continue
            lo = vz.lo
            if mask == 1:
                w = v + dmin
                if lo <= w <= vz.hi:
                    bits = vz.bits
                    if (bits is None or (bits >> (w - lo)) & 1) and not exclude_one(z, w):
                        return False
                continue
            shift = v + dmin - lo
            if shift >= 0:
                if shift > vz.hi - lo:
                    continue
                m = mask << shift
            else:
                m = mask >> -shift
            bits = vz.bits
            m &= (1 << (vz.hi - lo + 1)) - 1 if bits is None else bits
            if m and not remove_bits(z, vz, m):
                return False
        return True

    if reduce is None:
        first = Rule(free, ((INS, x),), _true)
    else:
        first = Rule(free, ((INS, x), (BOUND, x), (DOM, x)), reduce,
                     run_on_generated=True)
    return rt.spawn([first, Rule(None, None, exclude)], name=name) is not None


# -- n-ary constraints -----------------------------------------------------------


def _make_reducer(rt, c, terms):
    """Two-phase interval reducer for c + sum(a_i * X_i) = 0.

    The forward pass accumulates running bounds of the partial sums
    T_0 = c, T_i = T_(i-1) + a_i*X_i and fails unless 0 is inside the
    final range.  The backward pass pins T_n to 0 and walks back,
    narrowing each X_i from the surrounding partial-sum bounds and
    re-tightening T_(i-1) from the already-updated X_i.  One pass need
    not reach the interval fixpoint; the events posted by its own
    reductions re-activate the agent until quiescence.

    Between the passes sits the slack test of Harvey & Schimpf
    ("Bounds consistency techniques for long linear constraints",
    TRICS 2002): with the whole sum in [L, H], L <= 0 <= H, term i can
    narrow only if |a_i|*(hi_i - lo_i) > min(-L, H).  The forward pass
    tracks the widest term; when even that one passes the test, the
    backward pass would change nothing and is skipped.

    The store is called only for a bound that moves: a narrowing that
    would change nothing posts no event either way.

    The body is chosen once, here, from the coefficients.  When every
    a_i is 1 it is ``reduce_unit``: a term is X_i itself, so the passes
    add and subtract bounds with no sign test, product or division, and
    X_i narrows to cur - T_i directly.  Any other sum gets ``reduce``.
    Both make the same ``Store.intersect`` calls in the same order and
    return the same value, so the choice changes no event or count.
    """
    for a, _ in terms:
        if a != 1:
            return _general_reducer(rt.store, c, terms)
    return _unit_reducer(rt.store, c, terms)


def _unit_reducer(store, c, terms):
    """``_make_reducer``'s body for a sum whose coefficients are all 1."""
    vars_ = store.vars
    n = len(terms)
    # los[i], his[i]: the bounds of T_i, the sum before term i.  One
    # pair of lists per agent: an action never runs inside itself.
    los = [0] * n
    his = [0] * n
    term_vars = tuple([(i, x, vars_[x]) for i, (_, x) in enumerate(terms)])
    backward = term_vars[::-1]

    def reduce_unit(_event):
        t_lo = t_hi = c
        widest = 0
        for i, _, var in term_vars:
            los[i] = t_lo
            his[i] = t_hi
            lo = var.lo
            hi = var.hi
            t_lo += lo
            t_hi += hi
            if hi - lo > widest:
                widest = hi - lo
        if t_lo > 0 or t_hi < 0:
            return False
        if widest <= -t_lo and widest <= t_hi:
            return True
        cur_lo = cur_hi = 0
        for i, x, var in backward:
            # X lies in cur - T_i
            new_lo = cur_lo - his[i]
            new_hi = cur_hi - los[i]
            if new_lo > var.lo or new_hi < var.hi:
                if not store.intersect(x, new_lo, new_hi):
                    return False
            cur_lo -= var.hi
            cur_hi -= var.lo
        return cur_lo <= c <= cur_hi

    return reduce_unit


def _general_reducer(store, c, terms):
    """``_make_reducer``'s body for a sum with any non-zero coefficients."""
    vars_ = store.vars
    n = len(terms)
    los = [0] * n  # as in _unit_reducer
    his = [0] * n
    term_vars = tuple([(i, a, x, vars_[x]) for i, (a, x) in enumerate(terms)])
    backward = term_vars[::-1]

    def reduce(_event):
        t_lo = t_hi = c
        widest = 0
        for i, a, _, var in term_vars:
            los[i] = t_lo
            his[i] = t_hi
            if a > 0:
                w_lo = a * var.lo
                w_hi = a * var.hi
            else:
                w_lo = a * var.hi
                w_hi = a * var.lo
            t_lo += w_lo
            t_hi += w_hi
            if w_hi - w_lo > widest:
                widest = w_hi - w_lo
        if t_lo > 0 or t_hi < 0:
            return False
        if widest <= -t_lo and widest <= t_hi:
            return True
        cur_lo = cur_hi = 0
        for i, a, x, var in backward:
            # a*X lies in cur - T_i; divide, rounding inwards
            if a > 0:
                new_lo = -((his[i] - cur_lo) // a)
                new_hi = (cur_hi - los[i]) // a
            else:
                new_lo = -((cur_hi - los[i]) // -a)
                new_hi = (his[i] - cur_lo) // -a
            if new_lo > var.lo or new_hi < var.hi:
                if not store.intersect(x, new_lo, new_hi):
                    return False
            if a > 0:
                cur_lo -= a * var.hi
                cur_hi -= a * var.lo
            else:
                cur_lo -= a * var.lo
                cur_hi -= a * var.hi
        return cur_lo <= c <= cur_hi

    return reduce


# Per level: the n-ary agent's name suffix, the events of each term it
# wakes on, the free-variable count it waits for before it commits
# (None: it never commits), and the name of an equation's agent.
_SUM_AGENT = {
    ConsistencyLevel.FORWARD_CHECKING: ("_fwd", (INS,), 1, "eq_fwd"),
    ConsistencyLevel.INTERVAL: ("", (INS, BOUND), None, "eq_ic"),
    ConsistencyLevel.ARC: ("_hybrid", (INS, BOUND), 2, "eq_ac"),
}


def post_nary(rt: Runtime, nc: NaryLinear, level: ConsistencyLevel) -> bool:
    """Check the 64-bit budget and spawn the one agent, if any, for
    c + sum(a_i * X_i) = 0 at the requested level.  While more
    variables are free than the level waits for, it sleeps on its
    terms' events; at ic and ac it runs the interval reducer on each
    wake and once at generation.  Then it commits: it folds the bound
    terms into the constant and checks the ground sum or solves for the
    last free variable.  At ac a pair rule (``_pair_rule``), sleeping on
    dom of every term, sits between the two.

    A pair agent is the pair rule, sleeping on ins and bound of its two
    variables plus dom at ac, and the commitment; it is named ``eq_ic``
    or ``eq_ac`` after a*X = b*Y + c.  At ic it serves a sum of exactly
    two terms on distinct variables.  At ac it serves a sum with two
    free terms at posting, the bound ones folded into the constant; a
    sum with fewer, or with both on one variable, is checked or solved
    at once and spawns no agent."""
    _check_capacity(rt.store, nc.c, nc.terms, "n-ary")
    return _post_sum(rt, nc.c, nc.terms, level)


def _post_sum(rt, c, terms, level, binary=False) -> bool:
    """Spawn the agent ``post_nary`` describes, checking no budget.
    ``binary`` names the fc agent, too, after its equation."""
    store = rt.store
    vars_ = store.vars
    suffix, kinds, commit_at, family = _SUM_AGENT[level]
    arc = level is ConsistencyLevel.ARC

    def more_free():
        free = 0
        for _, x in terms:
            if vars_[x].count != 1:
                free += 1
                if free > commit_at:
                    return True
        return False

    if arc and not more_free():
        c, terms = _fold(vars_, c, terms)
        if len(terms) < 2 or terms[0][1] == terms[1][1]:
            return _solve(store, c, terms)
    interval = level is not ConsistencyLevel.FORWARD_CHECKING
    pair = interval and len(terms) == 2 and terms[0][1] != terms[1][1]
    if pair and arc:
        kinds += (DOM,)
    watch = tuple([(kind, x) for _, x in terms for kind in kinds])
    if pair:
        rules = [_pair_rule(rt, c, terms, watch, arc)]
    else:
        guard = None if commit_at is None else more_free
        rules = [Rule(guard, watch, _make_reducer(rt, c, terms) if interval else _true,
                      run_on_generated=interval)]
        if arc:
            rules.append(_pair_rule(rt, c, terms, tuple([(DOM, x) for _, x in terms]), True))

    def commit(_event):
        return _solve(store, c, terms)

    if pair or commit_at is not None:
        rules.append(Rule(None, None, commit))
    name = (f"{family}({_Pair(store, c, terms)})" if pair or binary
            else f"lin{len(terms)}{suffix}")
    return rt.spawn(rules, name=name) is not None


def _pair_rule(rt, c, terms, watch, arc) -> Rule:
    """The pair rule of c + sum(a_i * X_i) = 0, for while exactly two
    terms are free, sleeping on ``watch``.  On entry it folds the bound
    terms into the constant, keeps the two survivors as a ``_Pair``,
    narrows both sides and, with ``arc``, revises them under the
    runtime's deadline; two survivors on one variable are solved on
    entry instead.  Each later wake runs ``_Pair.step``, ignoring
    records of other variables: a hybrid sum's bound terms, queued
    before the switch.

    ``pair`` holds the survivors' equation, or None for two survivors
    on one variable, as of the latest entry.  It needs no trail: a
    backtrack that undoes an entry also moves the agent off this rule,
    so the agent sleeps here only after the entry that set ``pair``."""
    store = rt.store
    vars_ = store.vars
    pair = None

    def two_free():
        free = 0
        for _, x in terms:
            if vars_[x].count != 1:
                free += 1
        return free == 2

    def action(event):
        nonlocal pair
        if event.kind == GENERATED:
            k, free = _fold(vars_, c, terms)
            if free[0][1] == free[1][1]:
                pair = None
                return _solve(store, k, free)
            pair = _Pair(store, k, free)
            return pair.narrow() and (not arc or pair.revise(rt.deadline))
        if pair is None or (event.var != pair.x and event.var != pair.y):
            return True
        return pair.step(event)

    return Rule(two_free, watch, action, True)
