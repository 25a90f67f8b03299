"""Depth-first labeling search over a propagated store.

Left-to-right labeling follows the given variable order; values are
always tried in ascending order.  Every labeling attempt pushes a
choice point, binds, and propagates to fixpoint; a failed attempt
backtracks and bumps the backtrack counter.

The backtrack counter increments once per (variable, value) attempt
whose propagation fails.  Exhausting a value list makes the parent
advance without a further increment, and failures during root
propagation (before the first labeling choice) are not counted at all.

A run can be bounded by a backtrack budget and by a deadline.  Both are
checked after each failed attempt and before each choice point; when
one is hit the search stops, returns what it found so far, and names
the limit in ``SearchStats.limit``.  The deadline also bounds each
fixpoint: the runtime raises ``LimitReached`` out of one that runs past
it, and the search then backtracks to the root before it returns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .domain import members
from .runtime import LimitReached, Runtime
from .store import InvariantError

class UnboundVariableError(InvariantError):
    """Labeling reached a leaf with a variable still unbound: the
    variables given to label() do not determine the store.  solve_model
    reports it as a model error."""


@dataclass
class SearchStats:
    backtracks: int = 0
    limit: Optional[str] = None  # the limit that stopped the search early


def label(rt: Runtime, var_ids: Sequence[int], *, all_solutions: bool = False,
          max_backtracks: Optional[int] = None,
          deadline: Optional[float] = None) -> tuple[SearchStats, list[tuple]]:
    """Label the given variables.  Requires root propagation to have
    run already (run_to_fixpoint after posting all constraints).
    all_solutions: go on past the first solution.  max_backtracks: stop
    once more than this many attempts have failed.  deadline: stop once
    ``time.perf_counter()`` passes it, also inside a fixpoint.

    Returns the stats and the solutions found, each solution a tuple of
    the values of *all* store variables in creation order.
    """
    store = rt.store
    stats = SearchStats()
    solutions: list[tuple] = []
    vars_ = store.vars

    def pick():
        for x in var_ids:
            if vars_[x].count != 1:
                return x
        return None

    bounded = max_backtracks is not None or deadline is not None

    def limit_hit() -> bool:
        if max_backtracks is not None and stats.backtracks > max_backtracks:
            stats.limit = f"more than {max_backtracks} backtracks"
        elif deadline is not None and time.perf_counter() > deadline:
            stats.limit = "time limit"
        return stats.limit is not None

    # One frame per variable on the current branch: the variable, its
    # untried values, and the choice point of the value on trial.  The
    # values are ``members`` of the fields read when the frame is made,
    # so the trials, which narrow them in place, cannot change them.
    # Every frame below the top one holds a live choice point, so the
    # bottom frame's is the way back to the root.  The stack is explicit
    # so that the branch length is not bounded by the interpreter's
    # recursion limit.
    stack: list[list] = []

    def advance() -> bool:
        """Bind the next untried value of the deepest frame that has
        one and propagate, undoing exhausted frames on the way up.
        False once the whole tree is exhausted or a limit is hit."""
        while stack:
            frame = stack[-1]
            x, values, cp = frame
            if cp is not None:
                rt.backtrack_to(cp)
            for v in values:
                if bounded and limit_hit():
                    return False
                cp = frame[2] = rt.push_choice_point()
                if store.bind(x, v) and rt.run_to_fixpoint():
                    return True
                stats.backtracks += 1
                rt.backtrack_to(cp)
                if bounded and limit_hit():
                    return False
            stack.pop()
        return False

    rt.deadline = deadline
    while True:
        x = pick()
        if x is None:
            values = []
            for i, var in enumerate(vars_):
                if var.count != 1:
                    raise UnboundVariableError(
                        f"the label list leaves variable {store.name_of(i)!r} unbound")
                values.append(var.lo)
            solutions.append(tuple(values))
            if not all_solutions:
                break
        else:
            var = vars_[x]
            stack.append([x, members(var.lo, var.hi, var.bits), None])
        try:
            if not advance():
                break
        except LimitReached as exc:
            stats.limit = str(exc)
            rt.backtrack_to(stack[0][2])
            break
    return stats, solutions
