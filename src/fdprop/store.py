"""Backtrackable variable store.

The store owns the decision variables, converts domain deltas into
posted events, auto-instantiates singletons, and restores domains and
bindings exactly through a trail and a choice-point stack.  Failure is
a returned status (False), never an exception, so it composes with the
search loop's unwind.

Each variable carries the watcher lists of the agents suspended on it,
but the store never changes them: the runtime appends to them and
undoes its appends on its own trail.

A store and everything it owns is confined to one thread of control;
independent stores may run in parallel.
"""

from __future__ import annotations

from typing import Callable, Optional

from .domain import (
    DeltaKind,
    FiniteDomain,
    exclude_value,
    intersect_range,
)

# The delta kinds a real change can have, as plain ints: an int compare
# needs no enum attribute lookup.
_INSTANTIATED = int(DeltaKind.INSTANTIATED)
_BOUND_CHANGED = int(DeltaKind.BOUND_CHANGED)
_EMPTIED = int(DeltaKind.EMPTIED)

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
    """A decision variable: current domain, binding, and the per-event
    suspension lists (the agents, in registration order).

    ``watchers[kind]`` is the list for event kind ``kind``.  The
    GENERATED slot is an empty tuple: that event is never posted.
    """

    __slots__ = ("domain", "bound_value", "watchers", "name", "stamp")

    def __init__(self, domain: FiniteDomain, name: Optional[str] = None):
        self.domain = domain
        self.bound_value = domain.lo if domain.count == 1 else None
        self.watchers: tuple = ((), [], [], [])
        self.name = name
        self.stamp = 0

    def __repr__(self):
        label = self.name or "_"
        return f"Variable({label}={self.domain!r})"


class ChoicePoint:
    """Marks sufficient to restore the store's domains exactly."""

    __slots__ = ("trail_mark", "parent_stamp")

    def __init__(self, trail_mark, parent_stamp):
        self.trail_mark = trail_mark
        self.parent_stamp = parent_stamp


def _drop_event(kind: int, var: int, value: Optional[int]) -> None:
    pass


class Store:
    """Variable table + trail + choice-point stack.

    ``event_sink`` is called as sink(kind, var_id, payload) for every
    event a narrowing (``exclude``, ``intersect``, ``bind``) posts; the
    runtime installs itself here.  The default sink drops the events
    (domains still narrow correctly).
    """

    def __init__(self, event_sink: Callable[[int, int, Optional[int]], None] = _drop_event):
        self.vars: list[Variable] = []
        self.event_sink = event_sink
        self._trail: list[tuple[Variable, FiniteDomain, Optional[int], int]] = []
        self._cps: list[ChoicePoint] = []
        self._stamp_counter = 0
        self.current_stamp = 0

    # -- variables ---------------------------------------------------------

    def new_var(self, domain: FiniteDomain, name: Optional[str] = None) -> int:
        """Add a fresh variable.  A singleton domain binds immediately
        and silently (nothing can be watching yet).  Variables are made
        before the first choice point: a backtrack does not remove them."""
        if domain.count == 0:
            raise InvariantError("cannot create a variable with an empty domain")
        if self._cps:
            raise InvariantError("cannot create a variable after a choice point")
        var = Variable(domain, name)
        var.stamp = self.current_stamp
        self.vars.append(var)
        return len(self.vars) - 1

    def domain(self, x: int) -> FiniteDomain:
        return self.vars[x].domain

    def value(self, x: int) -> Optional[int]:
        return self.vars[x].bound_value

    def name_of(self, x: int) -> str:
        return self.vars[x].name or f"_{x}"

    # -- trailing ----------------------------------------------------------

    def _save(self, var: Variable) -> None:
        # One trail entry per variable per choice-point segment; the old
        # immutable domain object is the snapshot.
        if var.stamp != self.current_stamp:
            self._trail.append((var, var.domain, var.bound_value, var.stamp))
            var.stamp = self.current_stamp

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
        if bits is not None and not (bits >> (v - d.offset)) & 1:
            return True
        nd, delta = exclude_value(d, v)
        kind = delta.kind
        if kind == _EMPTIED:
            return False
        self._save(var)
        var.domain = nd
        if kind == _INSTANTIATED:
            var.bound_value = nd.lo
            self.event_sink(INS, x, None)
        elif kind == _BOUND_CHANGED:
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
        kind = delta.kind
        if kind == _EMPTIED:
            return False
        self._save(var)
        var.domain = nd
        if kind == _INSTANTIATED:
            var.bound_value = nd.lo
            self.event_sink(INS, x, None)
        else:
            self.event_sink(BOUND, x, None)
        return True

    def bind(self, x: int, v: int) -> bool:
        """Instantiate x to v (no-op if already bound to v)."""
        bound = self.vars[x].bound_value
        if bound is not None:
            return bound == v
        return self.intersect(x, v, v)

    # -- choice points -----------------------------------------------------

    def push_choice_point(self) -> ChoicePoint:
        cp = ChoicePoint(len(self._trail), self.current_stamp)
        self._stamp_counter += 1
        self.current_stamp = self._stamp_counter
        self._cps.append(cp)
        return cp

    def backtrack_to(self, cp: ChoicePoint) -> None:
        """Restore every domain and binding to the instant cp was
        created."""
        while self._cps and self._cps[-1] is not cp:
            self._cps.pop()
        if not self._cps:
            raise InvariantError("backtrack target is not on the choice-point stack")
        self._cps.pop()

        trail = self._trail
        while len(trail) > cp.trail_mark:
            var, dom, bound, stamp = trail.pop()
            var.domain = dom
            var.bound_value = bound
            var.stamp = stamp
        self.current_stamp = cp.parent_stamp

    def depth(self) -> int:
        return len(self._cps)
