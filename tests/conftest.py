"""Shared test helpers: the randomized model generator used by the
property suites and acceptance, plus small reference oracles."""

from __future__ import annotations

import random

from fdprop.linear import BinaryLinear, Diseq, NaryLinear
from fdprop.model import Distinct, Model, VarDecl


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
    """Observable store state for round-trip comparisons."""
    return tuple(
        (tuple(v.domain.values()), v.bound_value,
         tuple(v.ins_watchers), tuple(v.bound_watchers), tuple(v.dom_watchers))
        for v in store.vars
    )


def domain_snapshot(store) -> tuple:
    """Domains and bindings only: what fixpoint comparisons care about
    (scheduling order may legitimately vary agent bookkeeping)."""
    return tuple((tuple(v.domain.values()), v.bound_value) for v in store.vars)
