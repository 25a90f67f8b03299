"""Backtrackable variable store.

The store owns the decision variables, narrows their domains in place,
converts each real change into a posted event, and restores domains
exactly through a trail and a choice-point stack.  A variable holds its
domain as ``FiniteDomain``'s four fields (``lo``, ``hi``, ``count``,
``bits``), the way B-Prolog keeps a domain variable: an interval plus a
bit vector, updated in place under the trail.  Those fields and the
stamp are a variable's only trailed state; it is bound when ``count``
is 1.  Failure is a returned status (False), never an exception, so it
composes with the search loop's unwind.

Each variable carries the watcher lists of the agents suspended on it,
but the store never changes them: the runtime appends to them and
undoes its appends on its own trail.

A store and everything it owns is confined to one thread of control;
independent stores may run in parallel.
"""

from __future__ import annotations

from typing import Callable, Optional

from .domain import FiniteDomain

# The store no longer calls these two: they stay bound here because
# perfbench's tracer patches them by name in this module.
from .domain import exclude_value, intersect_range  # noqa: F401

# Event kinds shared with the runtime.  GENERATED never reaches the
# store; it exists for generation-time rule runs.
GENERATED = 0
INS = 1
BOUND = 2
DOM = 3

EVENT_NAMES = {GENERATED: "generated", INS: "ins", BOUND: "bound", DOM: "dom"}


class InvariantError(RuntimeError):
    """An internal consistency contract was violated."""


class Variable:
    """A decision variable: its domain, narrowed in place, the
    per-event suspension lists (the agents, in registration order) and
    ``stamp``, the choice-point depth whose trail segment holds its
    saved fields (0: none does).

    The domain is ``FiniteDomain``'s four fields: the members lie in
    ``lo..hi``, there are ``count`` of them, and ``bits`` is None for a
    contiguous interval, else bit i is set iff ``lo + i`` is a member
    (so bit 0 is set and a hole exists).  The variable is bound when
    ``count`` is 1, to ``lo``.  Only the store writes these fields.

    ``domain`` is an immutable ``FiniteDomain`` snapshot of the fields,
    built on first read and kept until a narrowing or a backtrack
    changes them: the same object across no-ops, a new one after every
    real change.  The engine reads the fields; the snapshot is for
    callers that keep a domain, such as a label frame's untried values.

    ``watchers[kind]`` is the list for event kind ``kind``.  The
    GENERATED slot is an empty tuple: that event is never posted.
    """

    __slots__ = ("lo", "hi", "count", "bits", "snapshot", "watchers", "name", "stamp")

    def __init__(self, domain: FiniteDomain, name: Optional[str] = None):
        self.lo = domain.lo
        self.hi = domain.hi
        self.count = domain.count
        self.bits = domain.bits
        self.snapshot = domain
        self.watchers: tuple = ((), [], [], [])
        self.name = name
        self.stamp = 0

    @property
    def domain(self) -> FiniteDomain:
        d = self.snapshot
        if d is None:
            d = self.snapshot = FiniteDomain(self.lo, self.hi, self.count, self.bits)
        return d

    def __repr__(self):
        label = self.name or "_"
        return f"Variable({label}={self.domain!r})"


def _set_bits(var: Variable, bits: int, base: int) -> None:
    """Write a non-empty bit vector whose bit i stands for ``base + i``
    into var's fields, ``count`` already set: shift it down to its
    lowest member, re-tighten the bounds, and drop the vector when the
    survivors are contiguous."""
    shift = (bits & -bits).bit_length() - 1
    bits >>= shift
    lo = var.lo = base + shift
    hi = var.hi = lo + bits.bit_length() - 1
    var.bits = None if var.count == hi - lo + 1 else bits


class ChoicePoint:
    """The trail length at the choice point: enough to restore every
    domain.  An object, so ``backtrack_to`` knows a stale one by identity."""

    __slots__ = ("trail_mark",)

    def __init__(self, trail_mark):
        self.trail_mark = trail_mark


def _drop_event(kind: int, var: int, value: Optional[int]) -> None:
    pass


class Store:
    """Variable table + trail + choice-point stack.

    The trail holds (variable, lo, hi, count, bits, stamp) entries: a
    variable's fields and stamp as they were before its first change at
    a choice-point depth, one entry per variable per depth at most
    (Aggoun & Beldiceanu's time-stamping).

    ``event_sink`` is called as sink(kind, var_id, payload) for every
    event a narrowing (``exclude``, ``intersect``, ``bind``) posts; the
    runtime installs itself here.  The default sink drops the events
    (domains still narrow correctly).  A narrowing writes the fields
    before it posts, and posts nothing when nothing changes or when the
    domain would become empty, which leaves it as it was.
    """

    def __init__(self, event_sink: Callable[[int, int, Optional[int]], None] = _drop_event):
        self.vars: list[Variable] = []
        self.event_sink = event_sink
        self._trail: list[tuple] = []
        self._cps: list[ChoicePoint] = []

    # -- variables ---------------------------------------------------------

    def new_var(self, domain: FiniteDomain, name: Optional[str] = None) -> int:
        """Add a fresh variable at depth 0, bound if its domain is a
        singleton.  Variables are made before the first choice point: a
        backtrack does not remove them."""
        if domain.count == 0:
            raise InvariantError("cannot create a variable with an empty domain")
        if self._cps:
            raise InvariantError("cannot create a variable after a choice point")
        self.vars.append(Variable(domain, name))
        return len(self.vars) - 1

    def domain(self, x: int) -> FiniteDomain:
        """A snapshot of x's domain (see ``Variable.domain``)."""
        return self.vars[x].domain

    def value(self, x: int) -> Optional[int]:
        var = self.vars[x]
        return var.lo if var.count == 1 else None

    def name_of(self, x: int) -> str:
        return self.vars[x].name or f"_{x}"

    # -- trailing ----------------------------------------------------------

    def _save(self, var: Variable) -> None:
        """Ready var for a real narrowing: drop its snapshot and, on its
        first change at this choice-point depth, trail its fields."""
        var.snapshot = None
        depth = len(self._cps)
        if var.stamp != depth:
            self._trail.append((var, var.lo, var.hi, var.count, var.bits, var.stamp))
            var.stamp = depth

    # -- narrowing ---------------------------------------------------------

    def exclude(self, x: int, v: int) -> bool:
        """Remove v from x's domain.  False on wipe-out.  A v that is
        not a member returns at once.  Excluding a bound posts bound
        (ins when one member is left) and re-tightens the bounds past
        any holes; excluding an interior member posts dom with v."""
        var = self.vars[x]
        lo = var.lo
        hi = var.hi
        if v < lo or v > hi:
            return True
        bits = var.bits
        if bits is not None and not (bits >> (v - lo)) & 1:
            return True
        count = var.count - 1
        if not count:
            return False
        self._save(var)
        var.count = count
        if lo < v < hi:
            if bits is None:
                bits = (1 << (hi - lo + 1)) - 1
            var.bits = bits ^ (1 << (v - lo))
            self.event_sink(DOM, x, v)
            return True
        if bits is not None:
            _set_bits(var, bits ^ (1 << (v - lo)), lo)
        elif v == lo:
            var.lo = lo + 1
        else:
            var.hi = hi - 1
        self.event_sink(INS if count == 1 else BOUND, x, None)
        return True

    def intersect(self, x: int, lo: int, hi: int) -> bool:
        """Narrow x's domain to its intersection with lo..hi.  A range
        that covers the domain returns at once; a real change posts
        bound, or ins when one member is left."""
        var = self.vars[x]
        dlo = var.lo
        dhi = var.hi
        if lo <= dlo and dhi <= hi:
            return True
        if lo < dlo:
            lo = dlo
        if hi > dhi:
            hi = dhi
        if lo > hi:
            return False
        bits = var.bits
        if bits is None:
            self._save(var)
            var.lo = lo
            var.hi = hi
            count = var.count = hi - lo + 1
        else:
            bits = (bits >> (lo - dlo)) & ((1 << (hi - lo + 1)) - 1)
            if not bits:
                return False
            self._save(var)
            count = var.count = bits.bit_count()
            _set_bits(var, bits, lo)
        self.event_sink(INS if count == 1 else BOUND, x, None)
        return True

    def bind(self, x: int, v: int) -> bool:
        """Instantiate x to v (no-op if already bound to v)."""
        var = self.vars[x]
        if var.count == 1:
            return var.lo == v
        return self.intersect(x, v, v)

    # -- choice points -----------------------------------------------------

    def push_choice_point(self) -> ChoicePoint:
        cp = ChoicePoint(len(self._trail))
        self._cps.append(cp)
        return cp

    def backtrack_to(self, cp: ChoicePoint) -> None:
        """Restore every domain to the instant cp was created."""
        while self._cps and self._cps[-1] is not cp:
            self._cps.pop()
        if not self._cps:
            raise InvariantError("backtrack target is not on the choice-point stack")
        self._cps.pop()

        # A depth can be used again: every variable stamped in a popped
        # segment gets its older stamp back from the trail.
        trail = self._trail
        while len(trail) > cp.trail_mark:
            var, var.lo, var.hi, var.count, var.bits, var.stamp = trail.pop()
            var.snapshot = None

    def depth(self) -> int:
        return len(self._cps)
