"""Fixpoint strength away from the root.

The defining consistency predicates must hold at quiescence after any
prefix of labeling decisions, not just after root propagation: the arc
propagators maintain their level incrementally from dom events, so this
exercises the maintenance path rather than the generation-time pass.
"""

import random

from conftest import random_model

from fdprop.linear import BinaryLinear, NaryLinear
from fdprop.model import Distinct, SolverConfig, build
from fdprop.oracle import (
    check_arc_consistent,
    check_interval_consistent,
    check_weak_arc_consistent,
)


def _label_random_prefix(rng, store, rt, order):
    """Bind a random prefix of the labeling order to random in-domain
    values, propagating after each; returns False on a dead end."""
    depth = rng.randint(1, max(1, len(order) - 1))
    for x in order[:depth]:
        if store.value(x) is not None:
            continue
        values = list(store.domain(x).values())
        if not store.bind(x, rng.choice(values)):
            return False
        if not rt.run_to_fixpoint():
            return False
    return True


def _free_pair(con, store):
    """For an n-ary sum with exactly two distinct unbound variables,
    (c', (a1, x1), (a2, x2)) with the bound terms folded into c';
    otherwise None."""
    c = con.c
    free = []
    for a, x in con.terms:
        v = store.value(x)
        if v is None:
            free.append((a, x))
        else:
            c += a * v
    if len(free) != 2 or free[0][1] == free[1][1]:
        return None
    return c, free[0], free[1]


def test_consistency_predicates_hold_after_partial_labeling():
    rng = random.Random(0xD0E5)
    checked = 0
    pairs = 0
    for _ in range(300):
        model = random_model(rng)
        for level, ad in (("ic", "linear"), ("ac", "linear"), ("ac", "wac")):
            store, rt, ok = build(model, SolverConfig(level=level, alldistinct=ad))
            if ok:
                ok = rt.run_to_fixpoint()
            if not ok:
                continue
            if not _label_random_prefix(rng, store, rt, model.label_order):
                continue
            checked += 1
            domains = [list(store.domain(i).values())
                       for i in range(len(model.vars))]
            for con in model.constraints:
                if isinstance(con, NaryLinear):
                    coeffs = [a for a, _ in con.terms]
                    doms = [domains[x] for _, x in con.terms]
                    assert check_interval_consistent(con.c, coeffs, doms), \
                        (model, level, ad, "interval/nary")
                    pair = _free_pair(con, store) if level == "ac" else None
                    if pair is not None:
                        # the hybrid has collapsed to one binary arc agent
                        c, (a1, x1), (a2, x2) = pair
                        pairs += 1
                        assert check_arc_consistent(
                            lambda v1, v2: c + a1 * v1 + a2 * v2 == 0,
                            domains[x1], domains[x2]), \
                            (model, level, ad, "arc/nary pair")
                elif isinstance(con, BinaryLinear):
                    assert check_interval_consistent(
                        con.c, [-con.a, con.b],
                        [domains[con.x], domains[con.y]]), \
                        (model, level, ad, "interval/binary")
                    if level == "ac":
                        a, b, c = con.a, con.b, con.c
                        assert check_arc_consistent(
                            lambda vx, vy: a * vx == b * vy + c,
                            domains[con.x], domains[con.y]), \
                            (model, level, ad, "arc/binary")
                elif isinstance(con, Distinct) and ad == "wac":
                    doms = [set(domains[x]) for x in con.vars]
                    assert check_weak_arc_consistent(doms), \
                        (model, level, ad, "weak-arc")
    assert checked > 200
    assert pairs > 5


def test_hybrid_pairs_stay_arc_consistent_along_labeling():
    """Each labeling step that leaves an n-ary sum two free variables
    must leave that pair arc consistent, at ac, after every fixpoint on
    the way down, not only at the end of a prefix."""
    rng = random.Random(0xA1C)
    pairs = 0
    for _ in range(3000):
        model = random_model(rng)
        sums = [con for con in model.constraints if isinstance(con, NaryLinear)]
        if not sums:
            continue
        store, rt, ok = build(model, SolverConfig(level="ac"))
        ok = ok and rt.run_to_fixpoint()
        for x in model.label_order:
            if not ok:
                break
            for con in sums:
                pair = _free_pair(con, store)
                if pair is None:
                    continue
                c, (a1, x1), (a2, x2) = pair
                pairs += 1
                assert check_arc_consistent(
                    lambda v1, v2: c + a1 * v1 + a2 * v2 == 0,
                    list(store.domain(x1).values()),
                    list(store.domain(x2).values())), (model, con)
            if store.value(x) is None:
                ok = (store.bind(x, rng.choice(list(store.domain(x).values())))
                      and rt.run_to_fixpoint())
    assert pairs > 400
