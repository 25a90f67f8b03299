"""The all-distinct global constraint in three strategies.

Each strategy posts one forward-checking exclusion agent per list
element, ``linear.post_diseq``: it sleeps until its variable is bound
and then excludes the value from every other element.  Every agent of
one constraint shares the constraint's one variable tuple, so posting
takes memory linear in its length.  LINEAR_SPACE is that agent alone.
NAIVE_PAIRWISE names the same posting: the pairwise disequalities
give each variable one exclusion agent over all its partners, the very
agent LINEAR_SPACE posts, so the two strategies coincide.  WEAK_AC
adds pigeonhole filtering on ins, bound and dom events of the
element's variable: whenever the number of other domains contained in
dom(X) reaches |dom(X)| - 1, the values of dom(X) are barred from
every other domain, and exceeding it is an outright failure.
"""

from __future__ import annotations

import enum
from typing import Sequence

from .domain import is_subset_of, members
from .linear import post_diseq
from .runtime import Runtime
from .store import Store


class Strategy(enum.Enum):
    NAIVE_PAIRWISE = "naive"
    LINEAR_SPACE = "linear"
    WEAK_AC = "wac"


def outof_reducer(store: Store, x: int, scope: Sequence[int]) -> bool:
    """Pigeonhole filter for one list element.

    ``scope`` is the whole list, x included.  With n = |dom(x)| and m
    = number of elements of scope whose domains are subsets of dom(x)
    (x always counts; a bound element, one with a singleton domain,
    counts when its value is in dom(x)): m > n is unsatisfiable; m = n
    lets every value of dom(x) be excluded from each unbound element
    whose domain is not such a subset.

    The filter can act only when m >= n, so at most ``len(scope) - n``
    elements may fail the subset test: the scan returns True as soon as
    one more has failed, and at once when that allowance is negative.
    A bound element is tested by its value, an unbound one by size and
    bounds first; ``is_subset_of``, given the two variables, runs only
    when dom(x) has holes, those tests pass and the element is not x
    itself.
    """
    vars_ = store.vars
    vx = vars_[x]
    n = vx.count
    # how many more elements may still fail the subset test
    spare = len(scope) - n
    if spare < 0:
        return True
    lo = vx.lo
    hi = vx.hi
    bits = vx.bits
    outside = []
    for z in scope:
        vz = vars_[z]
        count = vz.count
        if count == 1:
            v = vz.lo
            if lo <= v <= hi and (bits is None or (bits >> (v - lo)) & 1):
                continue
        else:
            if (count <= n and lo <= vz.lo and vz.hi <= hi
                    and (bits is None or vz is vx or is_subset_of(vz, vx))):
                continue
            outside.append(z)
        spare -= 1
        if spare < 0:
            return True
    if spare > 0:  # m > n
        return False
    # m == n
    values = list(members(lo, hi, bits))
    for z in outside:
        for v in values:
            if not store.exclude(z, v):
                return False
    return True


def post_alldistinct(rt: Runtime, vars: Sequence[int], strategy: Strategy) -> bool:
    """Post one ``outof(_x)`` agent per element under the chosen
    strategy.  Returns False on inconsistency detected while posting
    (including a repeated variable, which can never differ from
    itself)."""
    vars = tuple(vars)
    if len(set(vars)) < len(vars):
        return False
    shared = ((vars, (0,)),)
    store = rt.store
    for x in vars:
        reduce = None
        if strategy is Strategy.WEAK_AC:
            def reduce(_event, x=x):
                return outof_reducer(store, x, vars)
        if not post_diseq(rt, x, shared, f"outof(_{x})", reduce):
            return False
    return True
