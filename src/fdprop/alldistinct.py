"""The all-distinct global constraint in three strategies.

NAIVE_PAIRWISE posts a disequality agent for every unordered pair
(quadratic space).  LINEAR_SPACE posts one agent per list element that
sleeps until its variable is bound and then excludes the value from
both neighbour lists; pruning is identical to the pairwise encoding.
WEAK_AC adds pigeonhole filtering: whenever the number of neighbour
domains contained in dom(X) reaches |dom(X)| - 1, the values of dom(X)
are barred from every other domain, and exceeding it is an outright
failure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

from .domain import is_subset_of
from .linear import post_diseq
from .runtime import Rule, Runtime
from .store import BOUND, DOM, INS, Store


class Strategy(enum.Enum):
    NAIVE_PAIRWISE = "naive"
    LINEAR_SPACE = "linear"
    WEAK_AC = "wac"


@dataclass(frozen=True)
class AllDistinctPosting:
    vars: tuple[int, ...]
    strategy: Strategy = Strategy.LINEAR_SPACE

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if not self.vars:
            raise ValueError("all_distinct needs at least one variable")


def outof_reducer(store: Store, x: int, left: Sequence[int],
                  right: Sequence[int], hint: Optional[int] = None) -> bool:
    """Pigeonhole filter for one list element.

    With n = |dom(x)| and m = number of neighbours whose domains are
    subsets of dom(x) (an instantiated neighbour counts through its
    singleton domain): m+1 > n is unsatisfiable; m+1 = n lets every
    value of dom(x) be excluded from each unbound neighbour whose
    domain is not such a subset.  ``hint`` is a value just removed from
    dom(x) and feeds the subset test's shortcut.
    """
    vars_ = store.vars
    dx = vars_[x].domain
    n = dx.count
    m = 0
    outside = []
    for z in left:
        if is_subset_of(vars_[z].domain, dx, hint):
            m += 1
        elif vars_[z].bound_value is None:
            outside.append(z)
    for z in right:
        if is_subset_of(vars_[z].domain, dx, hint):
            m += 1
        elif vars_[z].bound_value is None:
            outside.append(z)
    if m + 1 > n:
        return False
    if m + 1 == n:
        values = list(dx.values())
        for z in outside:
            for v in values:
                if not store.exclude(z, v):
                    return False
    return True


def _spawn_outof(rt: Runtime, x: int, left: tuple[int, ...],
                 right: tuple[int, ...], weak: bool) -> bool:
    store = rt.store
    vx = store.vars[x]

    def free():
        return vx.bound_value is None

    def exclude_both_sides(_event):
        v = vx.bound_value
        for z in left:
            if not store.exclude(z, v):
                return False
        for z in right:
            if not store.exclude(z, v):
                return False
        return True

    if weak:
        def reduce(_event):
            return outof_reducer(store, x, left, right)

        rules = [
            Rule(free, ((INS, x), (BOUND, x)), reduce, run_on_generated=True),
            Rule(None, None, exclude_both_sides),
        ]
    else:
        rules = [
            Rule(free, ((INS, x),), lambda _event: True),
            Rule(None, None, exclude_both_sides),
        ]
    return rt.spawn(rules, name=f"outof(_{x})") is not None


def _spawn_outof_dom(rt: Runtime, x: int, left: tuple[int, ...],
                     right: tuple[int, ...]) -> bool:
    """Companion agent: reacts to inner exclusions from dom(x), passing
    the removed element as the subset-test hint."""
    store = rt.store
    vx = store.vars[x]

    def free():
        return vx.bound_value is None

    def reduce(event):
        return outof_reducer(store, x, left, right, event.value)

    rules = [
        Rule(free, ((DOM, x),), reduce),
        Rule(None, None, lambda _event: True),
    ]
    return rt.spawn(rules, name=f"outof_dom(_{x})") is not None


def post_alldistinct(rt: Runtime, posting: AllDistinctPosting) -> bool:
    """Post the constraint under the chosen strategy.  Returns False on
    inconsistency detected while posting (including a repeated variable,
    which can never differ from itself)."""
    vars_ = posting.vars
    if posting.strategy is Strategy.NAIVE_PAIRWISE:
        for i in range(len(vars_)):
            for j in range(i + 1, len(vars_)):
                if not post_diseq(rt, vars_[i], vars_[j], (0,)):
                    return False
        return True
    if len(set(vars_)) < len(vars_):
        return False
    weak = posting.strategy is Strategy.WEAK_AC
    for k, x in enumerate(vars_):
        left = vars_[:k]
        right = vars_[k + 1:]
        if not _spawn_outof(rt, x, left, right, weak):
            return False
        if weak and not _spawn_outof_dom(rt, x, left, right):
            return False
    return True
