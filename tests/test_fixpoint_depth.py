"""Fixpoint strength away from the root.

The defining consistency predicates must hold at quiescence after any
prefix of labeling decisions, not just after root propagation: the arc
propagators maintain their level incrementally from dom events, so this
exercises the maintenance path rather than the generation-time pass.
"""

import random

from conftest import random_model

from fdprop.linear import NaryLinear
from fdprop.model import SolverConfig, build, collapsed_pair, fixpoint_violations


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


def _collapsed_pairs(model, domains):
    return sum(1 for con in model.constraints
               if isinstance(con, NaryLinear)
               and collapsed_pair(con, domains) is not None)


def test_consistency_predicates_hold_after_partial_labeling():
    rng = random.Random(0xD0E5)
    checked = 0
    pairs = 0
    for _ in range(300):
        model = random_model(rng)
        for level, ad in (("ic", "linear"), ("ac", "linear"), ("ac", "wac")):
            config = SolverConfig(level=level, alldistinct=ad)
            store, rt, ok = build(model, config)
            if ok:
                ok = rt.run_to_fixpoint()
            if not ok:
                continue
            if not _label_random_prefix(rng, store, rt, model.label_order):
                continue
            checked += 1
            domains = [list(store.domain(i).values())
                       for i in range(len(model.vars))]
            if level == "ac":
                # each such sum has collapsed to one binary arc agent
                pairs += _collapsed_pairs(model, domains)
            failed = fixpoint_violations(model, domains, config)
            assert not any(failed.values()), (model, level, ad, failed)
    assert checked > 200
    assert pairs > 5


def test_hybrid_pairs_stay_arc_consistent_along_labeling():
    """Each labeling step that leaves an n-ary sum two free variables
    must leave that pair arc consistent, at ac, after every fixpoint on
    the way down, not only at the end of a prefix."""
    rng = random.Random(0xA1C)
    config = SolverConfig(level="ac")
    pairs = 0
    for _ in range(3000):
        model = random_model(rng)
        if not any(isinstance(con, NaryLinear) for con in model.constraints):
            continue
        store, rt, ok = build(model, config)
        ok = ok and rt.run_to_fixpoint()
        for x in model.label_order:
            if not ok:
                break
            domains = [list(store.domain(i).values())
                       for i in range(len(model.vars))]
            pairs += _collapsed_pairs(model, domains)
            failed = fixpoint_violations(model, domains, config)
            assert not any(failed.values()), (model, failed)
            if store.value(x) is None:
                ok = (store.bind(x, rng.choice(list(store.domain(x).values())))
                      and rt.run_to_fixpoint())
    assert pairs > 400
