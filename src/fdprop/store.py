"""Backtrackable variable store.

The store owns the decision variables, narrows their domains in place,
converts each real change into a posted event, and restores domains
exactly through a trail and a choice-point stack.  A variable holds its
domain as ``FiniteDomain``'s four fields (``lo``, ``hi``, ``count``,
``bits``), the way B-Prolog keeps a domain variable: an interval plus a
bit vector, updated in place under the trail.  Those fields and the
stamp are a variable's only trailed state; it is bound when ``count``
is 1.  A ``Record`` is a constraint's trailed state outside the
variable table.  Failure is a returned status (False), never an
exception, so it composes with the search loop's unwind.

Each variable carries the watcher lists of the agents suspended on it,
but the store never changes them: the runtime appends to them and
undoes its appends on its own trail.  The store reads them only to
post an event to a list that some agent watches: an event that no
agent watches activates nothing.  A variable also holds the runtime's
queue records of its two payload-free events, ``ins`` and ``bound``,
made once with it and reused by every post of them.

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


class Event:
    """A posted occurrence: kind, variable, and for dom events the
    excluded element.  Never written after construction: a variable's
    ins and bound events are shared by all their posts, and agents
    only read an event."""

    __slots__ = ("kind", "var", "value")

    def __init__(self, kind: int, var: Optional[int], value: Optional[int]):
        self.kind = kind
        self.var = var
        self.value = value

    def __repr__(self):
        name = EVENT_NAMES[self.kind]
        if self.kind == GENERATED:
            return "generated"
        if self.kind == DOM:
            return f"dom(_{self.var},{self.value})"
        return f"{name}(_{self.var})"


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

    ``domain`` is an immutable ``FiniteDomain`` of the fields, kept
    untrailed in ``memo`` while its four fields equal the variable's:
    the same object across no-ops, a new one after every real change
    or backtrack.  The engine reads the fields; ``domain`` is for the
    CLI, the API and the tests.

    ``watchers[kind]`` is the list for event kind ``kind``.  The
    GENERATED slot is an empty tuple: that event is never posted.
    ``records[kind]``, for kind INS or BOUND, is the variable's one
    queue record of that kind, [event, watchers[kind], n]: the
    variable's one ``Event`` of the kind, its watcher list, and n, the
    number of agents the runtime will wake when it takes the record,
    or 0 while it is not queued (see ``runtime``).  The GENERATED and
    DOM slots are None, since a dom event carries its value.
    """

    __slots__ = ("lo", "hi", "count", "bits", "memo", "watchers", "records", "name", "stamp")

    def __init__(self, domain: FiniteDomain, name: Optional[str], x: int):
        self.lo = domain.lo
        self.hi = domain.hi
        self.count = domain.count
        self.bits = domain.bits
        self.memo = domain
        watchers = self.watchers = ((), [], [], [])
        self.records = (None, [Event(INS, x, None), watchers[INS], 0],
                        [Event(BOUND, x, None), watchers[BOUND], 0], None)
        self.name = name
        self.stamp = 0

    @property
    def domain(self) -> FiniteDomain:
        d = self.memo
        if d.lo != self.lo or d.hi != self.hi or d.count != self.count or d.bits != self.bits:
            d = self.memo = FiniteDomain(self.lo, self.hi, self.count, self.bits)
        return d

    def __repr__(self):
        label = self.name or "_"
        return f"Variable({label}={self.domain!r})"


class Record:
    """A trailed record outside the variable table: ``live`` is the
    tuple of the variables of a group of exclusion agents (an
    all_distinct's elements, say) whose agent has not committed, and
    each agent calls ``Store.save_record`` before it changes it."""

    __slots__ = ("live", "stamp")

    def __init__(self, live: tuple):
        self.live = live
        self.stamp = 0


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

    The trail holds (var, lo, hi, count, bits, stamp) and (record,
    live, stamp) entries, each the state before the first change at a
    choice-point depth, at most one per variable or record per depth
    (Aggoun & Beldiceanu's time-stamping); a backtrack writes it back.

    ``event_sink`` is called as sink(kind, var_id, payload) for every
    event a narrowing (``exclude``, ``remove_bits``, ``intersect``,
    ``bind``) posts, and only when the variable's watcher list for that
    kind is non-empty; the runtime installs itself here.  The default
    sink drops the events (domains still narrow correctly).  A
    narrowing writes the fields before it posts, and posts nothing when
    nothing changes or when the domain would become empty, which leaves
    it as it was.  ``exclude`` removes one value; ``remove_bits``
    removes a set of members given as a bit vector aligned to ``lo``,
    with one trail entry and one write, for forward checking's commit.
    """

    def __init__(self, event_sink: Callable[[int, int, Optional[int]], None] = _drop_event):
        self.vars: list[Variable] = []
        self.event_sink = event_sink
        self._trail: list[tuple] = []
        self._cps: list[ChoicePoint] = []

    # -- variables ---------------------------------------------------------

    def new_var(self, domain: FiniteDomain, name: Optional[str] = None) -> int:
        """Add a fresh variable at depth 0, bound if its domain is a
        singleton, with its ins and bound queue records.  Variables are
        made before the first choice point: a backtrack does not remove
        them."""
        if domain.count == 0:
            raise InvariantError("cannot create a variable with an empty domain")
        if self._cps:
            raise InvariantError("cannot create a variable after a choice point")
        x = len(self.vars)
        self.vars.append(Variable(domain, name, x))
        return x

    def domain(self, x: int) -> FiniteDomain:
        """x's domain as a ``FiniteDomain`` (see ``Variable.domain``)."""
        return self.vars[x].domain

    def value(self, x: int) -> Optional[int]:
        var = self.vars[x]
        return var.lo if var.count == 1 else None

    def name_of(self, x: int) -> str:
        return self.vars[x].name or f"_{x}"

    # -- trailing ----------------------------------------------------------

    def save(self, var: Variable) -> None:
        """Trail var's fields and stamp on its first change at this depth."""
        depth = len(self._cps)
        if var.stamp != depth:
            self._trail.append((var, var.lo, var.hi, var.count, var.bits, var.stamp))
            var.stamp = depth

    def save_record(self, record: Record) -> None:
        """Trail record's ``live`` and stamp on its first change at this depth."""
        depth = len(self._cps)
        if record.stamp != depth:
            self._trail.append((record, record.live, record.stamp))
            record.stamp = depth

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
        self.save(var)
        var.count = count
        if lo < v < hi:
            if bits is None:
                bits = (1 << (hi - lo + 1)) - 1
            var.bits = bits ^ (1 << (v - lo))
            if var.watchers[DOM]:
                self.event_sink(DOM, x, v)
            return True
        if bits is not None:
            _set_bits(var, bits ^ (1 << (v - lo)), lo)
        elif v == lo:
            var.lo = lo + 1
        else:
            var.hi = hi - 1
        kind = INS if count == 1 else BOUND
        if var.watchers[kind]:
            self.event_sink(kind, x, None)
        return True

    def remove_bits(self, x: int, var: Variable, m: int) -> bool:
        """Remove from x's domain (var is its variable) the members
        named by m, a non-empty subset of them as a bit vector aligned
        to ``lo``: bit i stands for ``lo + i``.  False on wipe-out,
        before anything is written.  Otherwise one save, one write of
        the fields, and the events in a fixed order: ins (one member
        left) or bound, if a bound moved; then, unless bound, one dom
        per removed value strictly inside the new bounds, ascending."""
        n = m.bit_count()
        if var.count <= n:
            return False
        lo = var.lo
        hi = var.hi
        bits = var.bits
        if bits is None:
            bits = (1 << (hi - lo + 1)) - 1
        self.save(var)
        count = var.count = var.count - n
        _set_bits(var, bits ^ m, lo)
        watchers = var.watchers
        sink = self.event_sink
        if count == 1:
            if watchers[INS]:
                sink(INS, x, None)
            return True
        new_lo = var.lo
        new_hi = var.hi
        if (new_lo != lo or new_hi != hi) and watchers[BOUND]:
            sink(BOUND, x, None)
        if watchers[DOM]:
            # the removed values in new_lo+1 .. new_hi-1, bit j for new_lo+1+j
            inner = (m >> (new_lo + 1 - lo)) & ((1 << (new_hi - new_lo - 1)) - 1)
            while inner:
                low = inner & -inner
                sink(DOM, x, new_lo + low.bit_length())
                inner ^= low
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
            self.save(var)
            var.lo = lo
            var.hi = hi
            count = var.count = hi - lo + 1
        else:
            bits = (bits >> (lo - dlo)) & ((1 << (hi - lo + 1)) - 1)
            if not bits:
                return False
            self.save(var)
            count = var.count = bits.bit_count()
            _set_bits(var, bits, lo)
        kind = INS if count == 1 else BOUND
        if var.watchers[kind]:
            self.event_sink(kind, x, None)
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
        """Restore every domain and record to cp's instant; a stale cp
        raises and changes nothing."""
        cps = self._cps
        i = len(cps) - 1
        while i >= 0 and cps[i] is not cp:
            i -= 1
        if i < 0:
            raise InvariantError("backtrack target is not on the choice-point stack")
        del cps[i:]

        # Restoring stamps lets a depth be used again.  A record's entry
        # has three fields, so the six-field unpack raises before any
        # write: the try adds no opcode per variable entry, where a length
        # test added 0.55 M on seed-0 queens (tools/opcount.py).
        trail = self._trail
        while len(trail) > cp.trail_mark:
            entry = trail.pop()
            try:
                var, var.lo, var.hi, var.count, var.bits, var.stamp = entry
            except ValueError:
                record, record.live, record.stamp = entry

    def depth(self) -> int:
        return len(self._cps)
