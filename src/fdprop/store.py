"""Backtrackable variable store.

The store owns the decision variables, converts domain deltas into
posted events, and restores domains exactly through a trail and a
choice-point stack.  A variable's only trailed state is its domain; it
is bound when that is a singleton.  Failure is a returned status
(False), never an exception, so it composes with the search loop's
unwind.

Each variable carries the watcher lists of the agents suspended on it,
but the store never changes them: the runtime appends to them and
undoes its appends on its own trail.

A store and everything it owns is confined to one thread of control;
independent stores may run in parallel.
"""

from __future__ import annotations

from typing import Callable, Optional

from .domain import (
    BOUND_CHANGED,
    EMPTIED,
    INSTANTIATED,
    FiniteDomain,
    exclude_value,
    intersect_range,
)

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
    """A decision variable: its domain (bound when a singleton, to
    ``domain.lo``), the per-event suspension lists (the agents, in
    registration order) and ``stamp``, the choice-point depth whose
    trail segment holds its saved domain (0: none does).

    ``watchers[kind]`` is the list for event kind ``kind``.  The
    GENERATED slot is an empty tuple: that event is never posted.
    """

    __slots__ = ("domain", "watchers", "name", "stamp")

    def __init__(self, domain: FiniteDomain, name: Optional[str] = None):
        self.domain = domain
        self.watchers: tuple = ((), [], [], [])
        self.name = name
        self.stamp = 0

    def __repr__(self):
        label = self.name or "_"
        return f"Variable({label}={self.domain!r})"


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

    The trail holds (variable, old domain, old stamp) entries, one per
    variable per choice-point depth at most (Aggoun & Beldiceanu's
    time-stamping).

    ``event_sink`` is called as sink(kind, var_id, payload) for every
    event a narrowing (``exclude``, ``intersect``, ``bind``) posts; the
    runtime installs itself here.  The default sink drops the events
    (domains still narrow correctly).
    """

    def __init__(self, event_sink: Callable[[int, int, Optional[int]], None] = _drop_event):
        self.vars: list[Variable] = []
        self.event_sink = event_sink
        self._trail: list[tuple[Variable, FiniteDomain, int]] = []
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
        return self.vars[x].domain

    def value(self, x: int) -> Optional[int]:
        d = self.vars[x].domain
        return d.lo if d.count == 1 else None

    def name_of(self, x: int) -> str:
        return self.vars[x].name or f"_{x}"

    # -- trailing ----------------------------------------------------------

    def _save(self, var: Variable) -> None:
        # One trail entry per variable per choice-point depth; the old
        # immutable domain object is the snapshot.
        depth = len(self._cps)
        if var.stamp != depth:
            self._trail.append((var, var.domain, var.stamp))
            var.stamp = depth

    # -- narrowing ---------------------------------------------------------

    def exclude(self, x: int, v: int) -> bool:
        """Remove v from x's domain.  False on wipe-out.  A v that is
        not a member returns at once; only a real change calls
        ``exclude_value``."""
        var = self.vars[x]
        d = var.domain
        if v < d.lo or v > d.hi:
            return True
        bits = d.bits
        if bits is not None and not (bits >> (v - d.lo)) & 1:
            return True
        nd, delta = exclude_value(d, v)
        if delta is EMPTIED:
            return False
        self._save(var)
        var.domain = nd
        if delta is INSTANTIATED:
            self.event_sink(INS, x, None)
        elif delta is BOUND_CHANGED:
            self.event_sink(BOUND, x, None)
        else:  # INNER_EXCLUDED
            self.event_sink(DOM, x, v)
        return True

    def intersect(self, x: int, lo: int, hi: int) -> bool:
        """Narrow x's domain to its intersection with lo..hi.  A range
        that covers the domain returns at once; only a real change
        calls ``intersect_range``."""
        var = self.vars[x]
        d = var.domain
        if lo <= d.lo and d.hi <= hi:
            return True
        nd, delta = intersect_range(d, lo, hi)
        if delta is EMPTIED:
            return False
        self._save(var)
        var.domain = nd
        if delta is INSTANTIATED:
            self.event_sink(INS, x, None)
        else:
            self.event_sink(BOUND, x, None)
        return True

    def bind(self, x: int, v: int) -> bool:
        """Instantiate x to v (no-op if already bound to v)."""
        d = self.vars[x].domain
        if d.count == 1:
            return d.lo == v
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
            var, dom, stamp = trail.pop()
            var.domain = dom
            var.stamp = stamp

    def depth(self) -> int:
        return len(self._cps)
