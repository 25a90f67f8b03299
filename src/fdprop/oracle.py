"""Independent reference checkers.

Everything here is deliberately propagation-free: exhaustive solution
enumeration over explicit value lists, and the consistency predicates
computed from first principles.  Tests and the CLI ``verify`` command
use these as the second route against the engine; nothing in this
module touches a store or a runtime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

DEFAULT_CAP = 10 ** 7


class CapExceeded(ValueError):
    """The instance's raw assignment space is beyond the oracle's cap."""


@dataclass
class GroundModel:
    """Explicit domains plus constraints as predicates over scoped
    values.  Each constraint is (scope, pred) where scope lists variable
    indexes and pred receives the scoped values positionally."""

    domains: list[list[int]]
    constraints: list[tuple[tuple[int, ...], Callable[..., bool]]] = field(default_factory=list)


def enumerate_solutions(gm: GroundModel, cap: int = DEFAULT_CAP) -> set[tuple[int, ...]]:
    """All satisfying total assignments, by exhaustive tree search with
    no propagation (a constraint is tested as soon as its variables are
    assigned).  Refuses instances whose raw assignment count exceeds
    the cap, counting no further than cap + 1 however wide the model."""
    total = 1
    for d in gm.domains:
        total = min(total * len(d), cap + 1)
    if total > cap:
        raise CapExceeded(f"more than {cap} assignments")
    n = len(gm.domains)
    if n == 0:
        return {()} if all(pred() for _, pred in gm.constraints) else set()
    check_at: list[list[tuple[tuple[int, ...], Callable[..., bool]]]] = [[] for _ in range(n)]
    for scope, pred in gm.constraints:
        check_at[max(scope)].append((scope, pred))
    solutions: set[tuple[int, ...]] = set()
    assignment = [0] * n
    # The untried values of each assigned position.  The stack is
    # explicit so that the variable count is not bounded by the
    # interpreter's recursion limit.
    untried = [iter(gm.domains[0])] + [None] * (n - 1)
    i = 0
    while i >= 0:
        checks = check_at[i]
        for v in untried[i]:
            assignment[i] = v
            for scope, pred in checks:
                if not pred(*[assignment[s] for s in scope]):
                    break
            else:
                if i == n - 1:
                    solutions.add(tuple(assignment))
                    continue
                i += 1
                untried[i] = iter(gm.domains[i])
                break
        else:
            i -= 1
    return solutions


def check_interval_consistent(c: int, coeffs: Sequence[int],
                              domains: Sequence[Iterable[int]]) -> bool:
    """Interval consistency of c + sum(a_i * X_i) = 0.

    For each position i the residual (-c - sum of the other terms) / a_i
    is bounded in closed form over the other domains' extremes
    (linearity makes the extremes decomposable), and every value of
    domain i must lie within the integer-rounded range.
    """
    doms = [sorted(set(d)) for d in domains]
    n = len(coeffs)
    for i in range(n):
        num_min = -c
        num_max = -c
        for k in range(n):
            if k == i:
                continue
            a = coeffs[k]
            lo, hi = doms[k][0], doms[k][-1]
            if a > 0:
                num_min -= a * hi
                num_max -= a * lo
            else:
                num_min -= a * lo
                num_max -= a * hi
        a_i = coeffs[i]
        low = Fraction(num_min, a_i)
        high = Fraction(num_max, a_i)
        if a_i < 0:
            low, high = high, low
        lo_int = math.ceil(low)
        hi_int = math.floor(high)
        for v in doms[i]:
            if not lo_int <= v <= hi_int:
                return False
    return True


def check_arc_consistent(pred: Callable[[int, int], bool],
                         dx: Iterable[int], dy: Iterable[int]) -> bool:
    """Binary arc consistency by the double loop: every value on each
    side needs a supporting value on the other."""
    xs = list(dx)
    ys = list(dy)
    for x in xs:
        if not any(pred(x, y) for y in ys):
            return False
    for y in ys:
        if not any(pred(x, y) for x in xs):
            return False
    return True


def check_weak_arc_consistent(domains: Sequence[Iterable[int]],
                              tick: Optional[Callable[[], None]] = None) -> bool:
    """For every listed variable X with D = dom(X) and n = |D|, at most
    n of the listed domains may be subsets of D.  ``tick``, if given, is
    called before each domain's row of comparisons and may raise to cut
    the check short: a caller's time limit, say."""
    sets = [frozenset(d) for d in domains]
    for d in sets:
        if tick is not None:
            tick()
        n = len(d)
        subsets = sum(1 for other in sets if other <= d)
        if subsets > n:
            return False
    return True
