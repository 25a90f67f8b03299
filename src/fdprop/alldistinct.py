"""The all-distinct global constraint in three strategies.

Each strategy posts one forward-checking exclusion agent per list
element, ``linear.post_diseq``: once its variable is bound it excludes
the value from every other element.  The agents of one constraint
share one partner table, every element at offset 0, and one live
record, a ``Record`` under the store's trail whose ``live`` field is
the tuple of the elements whose agent has not committed, in list
order.  So posting takes memory linear in the list's length, and a
committed element is never visited again.
LINEAR_SPACE is that agent alone.  NAIVE_PAIRWISE names the same
posting: the pairwise disequalities give each variable one exclusion
agent over all its partners, the very agent LINEAR_SPACE posts, so the
two strategies coincide.  WEAK_AC adds pigeonhole filtering on ins,
bound and dom events of the element's variable: whenever the number of
other domains contained in dom(X) reaches |dom(X)| - 1, the values of
dom(X) are barred from every other domain, and exceeding it is an
outright failure.  The filter scans the live elements only, which is
exact: a committed element's value lies outside every live domain,
because its commitment either excluded it there or failed on an equal
bound value, so it always fails the containment test.
"""

from __future__ import annotations

import enum
from functools import partial
from typing import Sequence

# The filter no longer calls it: it stays bound here because
# perfbench's tracer patches it by name in this module.
from .domain import is_subset_of  # noqa: F401
from .linear import post_diseq
from .runtime import Runtime, check_deadline
from .store import Record, Store


class Strategy(enum.Enum):
    NAIVE_PAIRWISE = "naive"
    LINEAR_SPACE = "linear"
    WEAK_AC = "wac"


def outof_reducer(store: Store, x: int, live: Record, _event=None) -> bool:
    """Pigeonhole filter for one list element.

    It scans the live elements of ``live``, the list's live record, x
    among them (see the module docstring).  With n = |dom(x)| and m =
    number of scanned elements whose domains are subsets of dom(x) (x
    always counts; a bound element counts when its value is in dom(x)):
    m > n is unsatisfiable; m = n lets every value of dom(x) be excluded
    from each unbound element whose domain is not such a subset.

    The filter can act only when m >= n, so at most (scanned elements
    - n) may fail the subset test: the scan returns True as soon as one
    more has failed, and at once when that allowance is negative.  A
    bound element is tested by its value, an unbound one by size and
    bounds first, then, when dom(x) has holes and the element is not x,
    by its bits against those of dom(x), inline: a call per element
    would cost more than the test.  When m = n, exactly the allowance
    fails the test; if that is none, nothing is outside dom(x).  Else a
    second pass takes each unbound element z in scan order and ANDs its
    bits with those of dom(x) shifted to z's ``lo``: if that leaves all
    of dom(z), z is inside dom(x), else it excludes the members of the
    intersection from z, ascending, which never empties z.  So the
    store is called only for values that go.  ``_event`` is the wake's
    event, which the filter does not read: the agent's action is the
    filter itself.
    """
    vars_ = store.vars
    vx = vars_[x]
    n = vx.count
    scope = live.live
    # how many more elements may still fail the subset test
    spare = len(scope) - n
    if spare < 0:
        return True
    failing = spare  # how many elements fail the test if m == n
    lo = vx.lo
    hi = vx.hi
    bits = vx.bits
    holes = None if bits is None else ~bits
    for z in scope:
        vz = vars_[z]
        count = vz.count
        if count == 1:
            v = vz.lo
            if lo <= v <= hi and (bits is None or (bits >> (v - lo)) & 1):
                continue
        else:
            zlo = vz.lo
            zhi = vz.hi
            if count <= n and lo <= zlo and zhi <= hi:
                if bits is None or vz is vx:
                    continue
                zbits = vz.bits
                if zbits is None:
                    zbits = (1 << (zhi - zlo + 1)) - 1
                if not (zbits << (zlo - lo)) & holes:
                    continue
        spare -= 1
        if spare < 0:
            return True
    if spare > 0:  # m > n
        return False
    if not failing:  # m == n and every element is inside dom(x)
        return True
    # m == n: bar dom(x) from the unbound elements outside it
    if bits is None:
        bits = (1 << (hi - lo + 1)) - 1
    exclude = store.exclude
    for z in scope:
        vz = vars_[z]
        if vz.count == 1:
            continue
        zlo = vz.lo
        zbits = vz.bits
        if zbits is None:
            zbits = (1 << (vz.hi - zlo + 1)) - 1
        # dom(z) & dom(x), bit i for zlo + i
        shift = lo - zlo
        common = zbits & (bits << shift if shift >= 0 else bits >> -shift)
        if common == zbits:
            continue
        while common:
            low = common & -common
            if not exclude(z, zlo + low.bit_length() - 1):
                return False
            common ^= low
    return True


def post_alldistinct(rt: Runtime, vars: Sequence[int], strategy: Strategy) -> bool:
    """Post one ``outof(_x)`` agent per element under the chosen
    strategy, checking the runtime's deadline before each: a WEAK_AC
    agent runs its filter at generation.  Returns False on
    inconsistency detected while posting (including a repeated
    variable, which can never differ from itself)."""
    vars = tuple(vars)
    if len(set(vars)) < len(vars):
        return False
    live = Record(vars)
    store = rt.store
    table = {z: (store.vars[z], (0,), 0, 1) for z in vars}
    for x in vars:
        check_deadline(rt.deadline)
        reduce = None
        if strategy is Strategy.WEAK_AC:
            reduce = partial(outof_reducer, store, x, live)
        if not post_diseq(rt, x, live, table, f"outof(_{x})", reduce):
            return False
    return True
