"""Backtrackable variable store.

The store owns the decision variables, converts domain deltas into
posted events, auto-instantiates singletons, and provides exact state
restoration through a trail and a choice-point stack.  Failure is a
returned status (False), never an exception, so it composes with the
search loop's unwind.

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
    """A decision variable: current domain, binding, and the three
    per-event suspension lists (agent ids, in registration order).

    Watcher lists are append-only within a choice-point segment; entries
    for agents that have since ended are skipped lazily at wake time.
    """

    __slots__ = ("domain", "bound_value", "ins_watchers", "bound_watchers",
                 "dom_watchers", "name", "stamp")

    def __init__(self, domain: FiniteDomain, name: Optional[str] = None):
        self.domain = domain
        self.bound_value = domain.lo if domain.count == 1 else None
        self.ins_watchers: list[int] = []
        self.bound_watchers: list[int] = []
        self.dom_watchers: list[int] = []
        self.name = name
        self.stamp = 0

    def watchers(self, kind: int) -> list[int]:
        if kind == INS:
            return self.ins_watchers
        if kind == BOUND:
            return self.bound_watchers
        if kind == DOM:
            return self.dom_watchers
        raise ValueError(f"no watcher list for event kind {kind}")

    def __repr__(self):
        label = self.name or "_"
        return f"Variable({label}={self.domain!r})"


class ChoicePoint:
    """Marks sufficient to restore store and runtime state exactly."""

    __slots__ = ("trail_mark", "watch_mark", "var_mark", "parent_stamp",
                 "runtime_marks")

    def __init__(self, trail_mark, watch_mark, var_mark, parent_stamp,
                 runtime_marks):
        self.trail_mark = trail_mark
        self.watch_mark = watch_mark
        self.var_mark = var_mark
        self.parent_stamp = parent_stamp
        self.runtime_marks = runtime_marks


class Store:
    """Variable table + trail + choice-point stack.

    ``event_sink`` is called as sink(kind, var_id, payload) for every
    event a narrowing (``exclude``, ``intersect``, ``bind``) posts; the
    runtime installs itself here.  With no sink attached events are
    dropped (domains still narrow correctly).
    """

    def __init__(self, event_sink: Optional[Callable[[int, int, Optional[int]], None]] = None):
        self.vars: list[Variable] = []
        self.event_sink = event_sink
        self._trail: list[tuple[Variable, FiniteDomain, Optional[int], int]] = []
        self._watch_trail: list[list[int]] = []
        self._cps: list[ChoicePoint] = []
        self._stamp_counter = 0
        self.current_stamp = 0
        # Runtime hooks, installed by the Runtime constructor: () -> marks
        # and (marks) -> None.
        self._runtime_mark: Optional[Callable[[], object]] = None
        self._runtime_restore: Optional[Callable[[object], None]] = None

    # -- variables ---------------------------------------------------------

    def new_var(self, domain: FiniteDomain, name: Optional[str] = None) -> int:
        """Add a fresh variable.  A singleton domain binds immediately
        and silently (nothing can be watching yet)."""
        if domain.count == 0:
            raise InvariantError("cannot create a variable with an empty domain")
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

    def note_watcher_push(self, watcher_list: list[int]) -> None:
        """Record a watcher-list append so backtracking can pop it."""
        self._watch_trail.append(watcher_list)

    # -- narrowing ---------------------------------------------------------

    def exclude(self, x: int, v: int) -> bool:
        """Remove v from x's domain.  False on wipe-out."""
        var = self.vars[x]
        nd, delta = exclude_value(var.domain, v)
        kind = delta.kind
        if kind == DeltaKind.UNCHANGED:
            return True
        if kind == DeltaKind.EMPTIED:
            return False
        self._save(var)
        var.domain = nd
        sink = self.event_sink
        if kind == DeltaKind.INSTANTIATED:
            var.bound_value = delta.value
            if sink is not None:
                sink(INS, x, None)
        elif kind == DeltaKind.BOUND_CHANGED:
            if sink is not None:
                sink(BOUND, x, None)
        else:  # INNER_EXCLUDED
            if sink is not None:
                sink(DOM, x, v)
        return True

    def intersect(self, x: int, lo: int, hi: int) -> bool:
        """Narrow x's domain to its intersection with lo..hi."""
        var = self.vars[x]
        nd, delta = intersect_range(var.domain, lo, hi)
        kind = delta.kind
        if kind == DeltaKind.UNCHANGED:
            return True
        if kind == DeltaKind.EMPTIED:
            return False
        self._save(var)
        var.domain = nd
        sink = self.event_sink
        if kind == DeltaKind.INSTANTIATED:
            var.bound_value = delta.value
            if sink is not None:
                sink(INS, x, None)
        elif sink is not None:
            sink(BOUND, x, None)
        return True

    def bind(self, x: int, v: int) -> bool:
        """Instantiate x to v (no-op if already bound to v)."""
        bound = self.vars[x].bound_value
        if bound is not None:
            return bound == v
        return self.intersect(x, v, v)

    # -- choice points -----------------------------------------------------

    def push_choice_point(self) -> ChoicePoint:
        parent = self.current_stamp
        self._stamp_counter += 1
        self.current_stamp = self._stamp_counter
        runtime_marks = self._runtime_mark() if self._runtime_mark else None
        cp = ChoicePoint(len(self._trail), len(self._watch_trail),
                         len(self.vars), parent, runtime_marks)
        self._cps.append(cp)
        return cp

    def backtrack_to(self, cp: ChoicePoint) -> None:
        """Restore every domain, binding, watcher list, and the attached
        runtime's state to the instant cp was created."""
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
        watch = self._watch_trail
        while len(watch) > cp.watch_mark:
            watch.pop().pop()
        del self.vars[cp.var_mark:]
        self.current_stamp = cp.parent_stamp
        if self._runtime_restore is not None:
            self._runtime_restore(cp.runtime_marks)

    def depth(self) -> int:
        return len(self._cps)
