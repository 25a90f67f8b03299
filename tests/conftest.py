"""Shared test helpers: the randomized model generator used by the
property suites and acceptance, plus small reference oracles."""

from __future__ import annotations

import contextlib
import random

import pytest

import fdprop.model
from fdprop.benchmarks import get_benchmark
from fdprop.linear import BinaryLinear, Diseq, NaryLinear, diseq_table, post_diseq
from fdprop.model import Distinct, Model, VarDecl
from fdprop.oracle import enumerate_solutions
from fdprop.runtime import END, Agent, Event, Runtime
from fdprop.store import BOUND, DOM, INS, Record


@pytest.fixture(scope="session")
def sendmoney_oracle_solutions():
    """The brute-force solution set of sendmoney's ground model (cap
    10^8), the slowest enumeration in the suite, computed once per
    session for the tests that share it."""
    return enumerate_solutions(get_benchmark("sendmoney").to_ground(), cap=10 ** 8)


class ItemRuntime(Runtime):
    """The reference queue, which merges nothing: a post walks the
    watcher list and queues one (agent, event) item per agent not at
    END, and taking an item wakes its agent unless it has ended since.
    Every post thus reaches every agent that watched it, once, and the
    engine's merged bound records must reach the same fixpoints.  Its
    items are not records, so its backtrack clears them before the base
    undo, which zeroes the n of each record left queued."""

    def _post_kind(self, kind, var, value):
        event = Event(kind, var, value)
        push = self.queue.append
        for agent in self.store.vars[var].watchers[kind]:
            if agent.rule != END:
                push((agent, event))

    def run_to_fixpoint(self):
        queue = self.queue
        trace = self.trace
        while queue:
            agent, event = self._take()
            idx = agent.rule
            if idx == END:
                continue
            rule = agent.rules[idx]
            guard = rule.guard
            if guard is None or guard():
                self.activations += 1
                if not rule.action(event):
                    if trace is not None:
                        self._trace_line(agent, event, idx, "fail")
                    return False
                if trace is not None:
                    self._trace_line(agent, event, idx, "ok")
            elif not self._select(agent, idx + 1, event):
                return False
        return True

    def _restore(self, marks):
        self.queue.clear()
        super()._restore(marks)


@contextlib.contextmanager
def unmerged_queue():
    """Within the block ``model.build`` and ``solve_model`` run on
    ``ItemRuntime``: the reference side of the merging equivalence
    checks."""
    original = fdprop.model.Runtime
    fdprop.model.Runtime = ItemRuntime
    try:
        yield
    finally:
        fdprop.model.Runtime = original


# An agent at END: on a watcher list it makes the store post that
# list's events, and no fixpoint wakes it.
PLACEHOLDER = Agent(-1, (), "placeholder")


def watch_every_list(store, xs=None, kinds=(INS, BOUND, DOM)) -> None:
    """Put ``PLACEHOLDER`` on the ``kinds`` watcher lists of the
    variables ``xs`` (default: every variable of the store) that do not
    hold it yet.  The store hands an event to its sink only when the
    variable's list for that kind is non-empty, so a test that records
    events through a sink watches the lists first."""
    for x in range(len(store.vars)) if xs is None else xs:
        watchers = store.vars[x].watchers
        for kind in kinds:
            if PLACEHOLDER not in watchers[kind]:
                watchers[kind].append(PLACEHOLDER)


def post_own_diseq(rt, x, partners, name):
    """Post X's exclusion agent over ``partners`` (Z -> offsets, X not
    among them) with a record of its own, ``(x, *partners)``, as the
    model posts a disequality graph whose variables are not all partners
    of each other: the agent walks every partner whatever other agents
    do, so partners may be listed one way only."""
    return post_diseq(rt, x, Record((x, *partners)), diseq_table(rt.store, x, partners), name)


def random_domain(rng: random.Random, max_values: int = 9) -> VarDecl:
    lo = rng.randint(-6, 8)
    width = rng.randint(1, max_values)
    if rng.random() < 0.4 and width >= 3:
        # holed set within a window of at most max_values span
        span = rng.randint(width, max_values)
        values = tuple(sorted(rng.sample(range(lo, lo + span), width)))
        if len(values) == values[-1] - values[0] + 1:
            return VarDecl("v", values[0], values[-1])
        return VarDecl("v", values[0], values[-1], values)
    return VarDecl("v", lo, lo + width - 1)


def random_model(rng: random.Random, max_vars: int = 5,
                 max_values: int = 9) -> Model:
    """Small random model mixing binary/n-ary equalities, disequalities,
    and all-distinct; unsatisfiable instances are deliberately common."""
    n = rng.randint(2, max_vars)
    m = Model("random")
    for i in range(n):
        vd = random_domain(rng, max_values)
        m.vars.append(VarDecl(f"v{i}", vd.lo, vd.hi, vd.values))

    def mid(i):
        vd = m.vars[i]
        return (vd.lo + vd.hi) // 2

    for _ in range(rng.randint(1, 4)):
        kind = rng.random()
        if kind < 0.3:
            x, y = rng.sample(range(n), 2) if n >= 2 else (0, 0)
            a = rng.randint(1, 3)
            b = rng.randint(1, 3)
            c = a * mid(x) - b * mid(y) + rng.randint(-3, 3)
            m.constraints.append(BinaryLinear(a, x, b, y, c))
        elif kind < 0.6:
            k = rng.randint(2, min(4, n))
            xs = rng.sample(range(n), k)
            terms = tuple((rng.choice([-3, -2, -1, 1, 2, 3]), x) for x in xs)
            c = -sum(a * mid(x) for a, x in terms) + rng.randint(-3, 3)
            m.constraints.append(NaryLinear(c, terms))
        elif kind < 0.8:
            x, y = rng.sample(range(n), 2) if n >= 2 else (0, 0)
            m.constraints.append(Diseq(x, y, rng.randint(-3, 3)))
        else:
            k = rng.randint(2, min(4, n))
            m.constraints.append(Distinct(tuple(rng.sample(range(n), k))))
    m.label_order = list(range(n))
    return m


def domain_values(store, x) -> tuple[int, ...]:
    return tuple(store.domain(x).values())


def store_snapshot(store) -> tuple:
    """Observable store state for round-trip comparisons: each
    variable's domain, trail stamp and watchers."""
    return tuple(
        (tuple(v.domain.values()), v.stamp, tuple(map(tuple, v.watchers)))
        for v in store.vars
    )


def domain_snapshot(store) -> tuple:
    """Domains only: what fixpoint comparisons care about (scheduling
    order may legitimately vary agent bookkeeping)."""
    return tuple(tuple(v.domain.values()) for v in store.vars)
