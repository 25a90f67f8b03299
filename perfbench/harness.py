"""Workloads, seeded inputs, the closed-loop solve and its correctness gate.

Every solve is one closed loop: parse the model text, build the store
and runtime, propagate to the root fixpoint, and label to the first
solution.  The next solve starts only after the previous one ends.

The engine is imported from the ``src`` directory beside this one, so
the benchmark runs from a plain checkout without installing anything.
"""

from __future__ import annotations

import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "fdprop" / "__init__.py").is_file():
    raise ImportError(f"fdprop sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import fdprop  # noqa: E402
import fdprop.model as fd_model  # noqa: E402
import fdprop.search as fd_search  # noqa: E402
from fdprop.benchmarks import get_benchmark  # noqa: E402
from fdprop.model import SolverConfig, format_model  # noqa: E402

if Path(fdprop.__file__).resolve().parent != SRC / "fdprop":
    raise ImportError(f"imported fdprop from {fdprop.__file__}, not from {SRC}")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    backtracks is the first-solution backtrack count at seed 0.  When
    order_invariant is set the count must hold for every seed; when it
    is not, a different count on a non-zero seed is the known
    order-dependence defect (see README.md): the gate reports it apart
    from the failed solves, since the answer itself is right.
    """

    name: str
    model: str
    level: str
    alldistinct: str
    backtracks: int
    order_invariant: bool = True

    def config(self) -> SolverConfig:
        return SolverConfig(level=self.level, alldistinct=self.alldistinct)


WORKLOADS = {
    w.name: w for w in (
        # README table: queens(25) 7255 and alpha (ac) 4605, as published.
        Workload("queens", "queens(25)", "ac", "linear", 7255),
        Workload("alpha", "alpha", "ac", "linear", 4605),
        # The engine's own count at seed 0; shuffled posting orders give
        # other counts (weak-AC fixpoints depend on order).
        Workload("magic-wac", "magic(5)", "ic", "wac", 4644, order_invariant=False),
    )
}


def inputs(workload: Workload, seed: int):
    """The model texts for one seed, one per solve, without end.

    Seed 0 gives the shipped constraint order every time.  A non-zero
    seed gives a new shuffle of the order in which constraints are
    posted for each solve, drawn from one generator seeded with it, so
    a run covers many orders and the same seed always gives the same
    sequence.  The label order never changes.
    """
    model = get_benchmark(workload.model)
    if not seed:
        text = format_model(model)
        while True:
            yield text
    shipped = model.constraints
    rng = random.Random(seed)
    while True:
        model.constraints = list(shipped)
        rng.shuffle(model.constraints)
        yield format_model(model)


def make_input(workload: Workload, seed: int) -> str:
    """The first model text for one seed."""
    return next(inputs(workload, seed))


def now() -> tuple[float, float]:
    """Wall-clock time and the CPU time of this thread."""
    return time.perf_counter(), time.thread_time()


@dataclass
class Solve:
    """Phase boundaries and exact counts of one closed-loop solve.

    marks holds ``now()`` at the start and after parse, build, root
    propagation and labeling.  The phase properties are wall times.
    """

    marks: tuple[tuple[float, float], ...]
    backtracks: int
    activations: int
    agents: int
    solutions: list

    def phase_s(self, first: int, last: int) -> float:
        return self.marks[last][0] - self.marks[first][0]

    @property
    def parse_s(self) -> float:
        return self.phase_s(0, 1)

    @property
    def build_s(self) -> float:
        return self.phase_s(1, 2)

    @property
    def root_s(self) -> float:
        return self.phase_s(2, 3)

    @property
    def solve_s(self) -> float:
        return self.phase_s(0, 4)


def setup(text: str, workload: Workload):
    """Load plus build: the set-up part of a solve."""
    model = fd_model.parse_model(text, workload.name)
    store, rt, ok = fd_model.build(model, workload.config())
    return model, rt, ok


def solve(text: str, workload: Workload) -> Solve:
    """Run one solve.  Module attributes are looked up on every call so
    that the tracer's wrappers, when installed, are the ones used."""
    t0 = now()
    model = fd_model.parse_model(text, workload.name)
    t1 = now()
    store, rt, ok = fd_model.build(model, workload.config())
    t2 = now()
    agents = len(rt.agents)
    ok = ok and rt.run_to_fixpoint()
    t3 = now()
    if ok:
        stats, solutions = fd_search.label(rt, model.label_order)
        backtracks = stats.backtracks
    else:
        solutions, backtracks = [], 0
    t4 = now()
    return Solve((t0, t1, t2, t3, t4), backtracks, rt.activations, agents, solutions)


class Gate:
    """The correctness gate for one workload and seed.

    A solve passes only if it finds exactly one solution, that solution
    satisfies every constraint of ``Model.to_ground()`` (reference
    predicates, not the propagators), and its backtrack count equals
    the expected one.  The one exception is the known order defect: on
    a non-zero seed of a workload that is not order invariant, a right
    answer with another backtrack count is counted in ``known_defect``
    and recorded in ``defect_counts``, not as a failed solve.
    """

    def __init__(self, workload: Workload, seed: int, text: str,
                 expected_backtracks: Optional[int] = None):
        self.workload = workload
        self.seed = seed
        self.expected = (workload.backtracks if expected_backtracks is None
                         else expected_backtracks)
        ground = fd_model.parse_model(text, workload.name).to_ground()
        self.domains = [frozenset(d) for d in ground.domains]
        self.constraints = ground.constraints
        self.attempted = 0
        self.failed = 0
        self.known_defect = 0
        self.defect_counts: list[int] = []
        self.reasons: list[str] = []

    def check(self, result: Solve) -> Optional[str]:
        """Record one solve; return why it failed, or None."""
        self.attempted += 1
        reason = self._wrong_answer(result)
        if reason is None and result.backtracks != self.expected:
            if self.seed != 0 and not self.workload.order_invariant:
                self.known_defect += 1
                self.defect_counts.append(result.backtracks)
                return None
            reason = f"{result.backtracks} backtracks, expected {self.expected}"
        if reason is not None:
            self.failed += 1
            if reason not in self.reasons:
                self.reasons.append(reason)
        return reason

    def _wrong_answer(self, result: Solve) -> Optional[str]:
        if len(result.solutions) != 1:
            return f"{len(result.solutions)} solutions, expected exactly 1"
        sol = result.solutions[0]
        if len(sol) != len(self.domains):
            return f"solution has {len(sol)} values for {len(self.domains)} variables"
        for i, (v, dom) in enumerate(zip(sol, self.domains)):
            if v not in dom:
                return f"variable {i} = {v} is outside its declared domain"
        for k, (scope, pred) in enumerate(self.constraints):
            if not pred(*(sol[i] for i in scope)):
                return f"solution violates ground constraint {k}"
        return None

    @property
    def correct(self) -> bool:
        return self.failed == 0
