"""The all-distinct global constraint in three strategies.

NAIVE_PAIRWISE posts a disequality agent for every unordered pair
(quadratic space).  The other two post one agent per list element;
all of them share the constraint's one variable tuple, so posting
takes memory linear in its length.  Under LINEAR_SPACE the agent
sleeps until its variable is bound and then excludes the value from
every other element; pruning is identical to the pairwise encoding.
WEAK_AC adds pigeonhole filtering on ins, bound and dom events of the
element's variable: whenever the number of other domains contained in
dom(X) reaches |dom(X)| - 1, the values of dom(X) are barred from
every other domain, and exceeding it is an outright failure.
"""

from __future__ import annotations

import enum
from typing import Sequence

from .domain import is_subset_of
from .linear import _true, post_diseq
from .runtime import Rule, Runtime
from .store import BOUND, DOM, INS, Store


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
    bounds first; ``is_subset_of`` runs only when dom(x) has holes,
    those tests pass and the domain is not the very object dom(x), as
    x's own entry's is.
    """
    vars_ = store.vars
    dx = vars_[x].domain
    n = dx.count
    # how many more elements may still fail the subset test
    spare = len(scope) - n
    if spare < 0:
        return True
    lo = dx.lo
    hi = dx.hi
    bits = dx.bits
    outside = []
    for z in scope:
        dz = vars_[z].domain
        count = dz.count
        if count == 1:
            v = dz.lo
            if lo <= v <= hi and (bits is None or (bits >> (v - lo)) & 1):
                continue
        else:
            if (count <= n and lo <= dz.lo and dz.hi <= hi
                    and (bits is None or dz is dx or is_subset_of(dz, dx))):
                continue
            outside.append(z)
        spare -= 1
        if spare < 0:
            return True
    if spare > 0:  # m > n
        return False
    # m == n
    values = list(dx.values())
    for z in outside:
        for v in values:
            if not store.exclude(z, v):
                return False
    return True


def _spawn_outof(rt: Runtime, x: int, scope: tuple[int, ...], weak: bool) -> bool:
    """Spawn the agent of element x.  ``scope`` is the constraint's one
    shared tuple, x included: every agent of the constraint keeps the
    same tuple and skips its own x."""
    store = rt.store
    vx = store.vars[x]

    def free():
        return vx.domain.count != 1

    def exclude_from_others(_event):
        v = vx.domain.lo
        for z in scope:
            if z != x and not store.exclude(z, v):
                return False
        return True

    if weak:
        def reduce(_event):
            return outof_reducer(store, x, scope)

        first = Rule(free, ((INS, x), (BOUND, x), (DOM, x)), reduce,
                     run_on_generated=True)
    else:
        first = Rule(free, ((INS, x),), _true)
    rules = [first, Rule(None, None, exclude_from_others)]
    return rt.spawn(rules, name=f"outof(_{x})") is not None


def post_alldistinct(rt: Runtime, vars: Sequence[int], strategy: Strategy) -> bool:
    """Post the constraint under the chosen strategy.  Returns False on
    inconsistency detected while posting (including a repeated variable,
    which can never differ from itself)."""
    vars = tuple(vars)
    if strategy is Strategy.NAIVE_PAIRWISE:
        for i in range(len(vars)):
            for j in range(i + 1, len(vars)):
                if not post_diseq(rt, vars[i], vars[j], (0,)):
                    return False
        return True
    if len(set(vars)) < len(vars):
        return False
    weak = strategy is Strategy.WEAK_AC
    for x in vars:
        if not _spawn_outof(rt, x, vars, weak):
            return False
    return True
