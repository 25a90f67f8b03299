"""Depth-first labeling search over a propagated store.

Left-to-right labeling follows the given variable order; values are
always tried in ascending order.  Every labeling attempt pushes a
choice point, binds, and propagates to fixpoint; a failed attempt
backtracks and bumps the backtrack counter.

The backtrack counter increments once per (variable, value) attempt
whose propagation fails.  Exhausting a value list makes the parent
advance without a further increment, and failures during root
propagation (before the first labeling choice) are not counted at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .runtime import Runtime
from .store import InvariantError

LEFT_TO_RIGHT = "left_to_right"
FIRST_FAIL = "first_fail"  # smallest-domain-first; an extra, off the beaten path

FIRST_SOLUTION = "first"
ALL_SOLUTIONS = "all"


class UnboundVariableError(InvariantError):
    """Labeling reached a leaf with a variable still unbound: the
    variables given to label() do not determine the store.  solve_model
    reports it as a model error."""


@dataclass
class SearchStats:
    backtracks: int = 0
    activations: int = 0
    solutions: int = 0


@dataclass
class LabelingSpec:
    order: str = LEFT_TO_RIGHT
    mode: str = FIRST_SOLUTION

    def __post_init__(self):
        if self.order not in (LEFT_TO_RIGHT, FIRST_FAIL):
            raise ValueError(f"unknown labeling order {self.order!r}")
        if self.mode not in (FIRST_SOLUTION, ALL_SOLUTIONS):
            raise ValueError(f"unknown search mode {self.mode!r}")


def label(rt: Runtime, var_ids: Sequence[int],
          spec: LabelingSpec = LabelingSpec()) -> tuple[SearchStats, list[tuple]]:
    """Label the given variables.  Requires root propagation to have
    run already (run_to_fixpoint after posting all constraints).

    Returns the stats and the solutions found, each solution a tuple of
    the values of *all* store variables in creation order.
    """
    store = rt.store
    stats = SearchStats()
    solutions: list[tuple] = []
    stop_at_first = spec.mode == FIRST_SOLUTION
    first_fail = spec.order == FIRST_FAIL
    vars_ = store.vars

    def pick():
        if first_fail:
            best = None
            best_count = None
            for x in var_ids:
                if vars_[x].bound_value is None:
                    c = vars_[x].domain.count
                    if best_count is None or c < best_count:
                        best, best_count = x, c
            return best
        for x in var_ids:
            if vars_[x].bound_value is None:
                return x
        return None

    # One frame per variable on the current branch: the variable, its
    # untried values, and the choice point of the value on trial.  The
    # stack is explicit so that the branch length is not bounded by the
    # interpreter's recursion limit.
    stack: list[list] = []

    def advance() -> bool:
        """Bind the next untried value of the deepest frame that has
        one and propagate, undoing exhausted frames on the way up.
        False once the whole tree is exhausted."""
        while stack:
            frame = stack[-1]
            x, values, cp = frame
            if cp is not None:
                rt.backtrack_to(cp)
            for v in values:
                cp = rt.push_choice_point()
                if store.bind(x, v) and rt.run_to_fixpoint():
                    frame[2] = cp
                    return True
                stats.backtracks += 1
                rt.backtrack_to(cp)
            stack.pop()
        return False

    while True:
        x = pick()
        if x is None:
            values = []
            for i, v in enumerate(vars_):
                if v.bound_value is None:
                    raise UnboundVariableError(
                        f"the label list leaves variable {store.name_of(i)!r} unbound")
                values.append(v.bound_value)
            solutions.append(tuple(values))
            stats.solutions += 1
            if stop_at_first:
                break
        else:
            stack.append([x, iter(list(vars_[x].domain.values())), None])
        if not advance():
            break
    stats.activations = rt.activations
    return stats, solutions
