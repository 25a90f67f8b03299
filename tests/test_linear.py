import math
import random
from fractions import Fraction

import pytest

from conftest import domain_snapshot, domain_values, random_domain, random_model

from fdprop.domain import make_interval, make_set
from fdprop.linear import (
    BinaryLinear,
    CapacityError,
    ConsistencyLevel,
    Diseq,
    NaryLinear,
    _make_reducer,
    ceil_div,
    post_binary,
    post_diseq,
    post_nary,
)
from fdprop.model import (
    Distinct,
    Model,
    SolverConfig,
    VarDecl,
    _diseq_groups,
    build,
    fixpoint_violations,
    parse_model,
    solve_model,
)
from fdprop.oracle import enumerate_solutions
from fdprop.runtime import Runtime
from fdprop.search import label
from fdprop.store import Store

FC = ConsistencyLevel.FORWARD_CHECKING
IC = ConsistencyLevel.INTERVAL
AC = ConsistencyLevel.ARC


def fresh():
    store = Store()
    return store, Runtime(store)


def test_division_examples():
    assert ceil_div(7, 2) == 4
    assert ceil_div(-7, 2) == -3
    assert ceil_div(6, 3) == 2


def test_division_exact_on_signed_grid():
    for p in range(-100, 101):
        for q in range(1, 13):
            exact = Fraction(p, q)
            assert ceil_div(p, q) == math.ceil(exact)


def test_binary_interval_reduces_both_sides():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    y = store.new_var(make_interval(1, 5))
    assert post_binary(rt, BinaryLinear(1, x, 1, y, 1), IC)
    assert rt.run_to_fixpoint()
    assert domain_values(store, x) == (2, 3, 4, 5)
    assert domain_values(store, y) == (1, 2, 3, 4)


def test_binary_arc_prunes_unsupported_value():
    store, rt = fresh()
    x = store.new_var(make_set([2, 4, 5]))
    y = store.new_var(make_interval(1, 4))
    assert post_binary(rt, BinaryLinear(1, x, 1, y, 1), AC)
    assert rt.run_to_fixpoint()
    assert 2 not in store.domain(y)
    assert domain_values(store, y) == (1, 3, 4)


def test_binary_forward_solves_other_side():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    y = store.new_var(make_interval(1, 5))
    assert post_binary(rt, BinaryLinear(1, x, 1, y, 1), FC)
    assert rt.run_to_fixpoint()
    assert store.bind(x, 3) and rt.run_to_fixpoint()
    assert store.value(y) == 2


def test_binary_forward_indivisible_fails():
    # brute force over y in 1..5: 2x = 2y + 1 has no integer solution
    assert all((2 * y + 1) % 2 != 0 for y in range(1, 6))
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    y = store.new_var(make_interval(1, 5))
    assert post_binary(rt, BinaryLinear(2, x, 2, y, 1), FC)
    assert store.bind(y, 1)
    assert not rt.run_to_fixpoint()


def test_binary_same_variable_normalizes():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 9))
    assert post_binary(rt, BinaryLinear(2, x, 2, x, 0), IC)      # 0 = 0
    assert not post_binary(rt, BinaryLinear(2, x, 2, x, 1), IC)  # 0 = 1
    assert post_binary(rt, BinaryLinear(3, x, 1, x, 8), IC)      # 2x = 8
    assert store.value(x) == 4


def test_binary_rejects_nonpositive_coefficients():
    with pytest.raises(ValueError):
        BinaryLinear(0, 0, 1, 1, 0)
    with pytest.raises(ValueError):
        BinaryLinear(1, 0, -1, 1, 0)


def test_nary_rejects_empty_sum_and_zero_coefficient():
    with pytest.raises(ValueError, match="at least one term"):
        NaryLinear(0, ())
    with pytest.raises(ValueError, match="zero coefficient"):
        NaryLinear(0, ((1, 0), (0, 1)))


@pytest.mark.parametrize("level,family", [(FC, "eq_fwd"), (IC, "eq_ic"), (AC, "eq_ac")],
                         ids=["fc", "ic", "ac"])
def test_binary_posts_one_agent_per_level(level, family):
    # the name prefix is the agent family the perfbench tracer counts
    store, rt = fresh()
    x = store.new_var(make_set([1, 3, 4, 6]))
    y = store.new_var(make_interval(0, 9))
    assert post_binary(rt, BinaryLinear(2, x, 1, y, 2), level)
    assert len(rt.agents) == 1
    assert rt.agents[0].name == f"{family}(2*_{x}=1*_{y}+2)"
    assert rt.run_to_fixpoint()
    assert store.bind(x, 3) and rt.run_to_fixpoint()
    assert store.value(y) == 4 and len(rt.agents) == 1


def test_diseq_examples():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    y = store.new_var(make_interval(1, 5))
    assert post_diseq(rt, x, (((y,), (0,)),), "neq(_0)")  # Y != X + 0
    assert [a.name for a in rt.agents] == ["neq(_0)"]
    assert store.bind(x, 3) and rt.run_to_fixpoint()
    assert domain_values(store, y) == (1, 2, 4, 5)

    # X != Y + 2 as its two sides; both bound before either agent runs
    for vx, vy, consistent in ((3, 1, False), (3, 2, True)):
        store, rt = fresh()
        x = store.new_var(make_interval(1, 5))
        y = store.new_var(make_interval(1, 5))
        assert post_diseq(rt, x, (((y,), (-2,)),), "neq(_0)")
        assert post_diseq(rt, y, (((x,), (2,)),), "neq(_1)")
        assert store.bind(x, vx) and store.bind(y, vy)
        assert rt.run_to_fixpoint() == consistent

    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    y = store.new_var(make_interval(1, 5))
    assert post_diseq(rt, x, (((y,), (0, 1, -1)),), "neq(_0)") and rt.run_to_fixpoint()
    assert domain_values(store, y) == (1, 2, 3, 4, 5)  # x free: asleep
    assert store.bind(x, 3) and rt.run_to_fixpoint()
    assert domain_values(store, y) == (1, 5)  # every offset barred


def test_diseq_same_variable():
    def one_record(c):
        return Model("m", [VarDecl("x", 1, 5)], [Diseq(0, 0, c)], [0])

    assert not build(one_record(0))[2]  # X != X + 0 never holds
    store, rt, ok = build(one_record(2))  # X != X + 2 always holds
    assert ok and rt.agents == []


def _with_pair_diseqs(rng, model):
    """Add 2-3 disequalities on one pair: fresh offsets, a reversed
    copy (y, x, -c) and a plain duplicate."""
    x, y = rng.sample(range(len(model.vars)), 2)
    c = rng.randint(-3, 3)
    extra = [Diseq(x, y, c), Diseq(y, x, -c), Diseq(x, y, c),
             Diseq(x, y, rng.randint(-3, 3)), Diseq(y, x, rng.randint(-3, 3))]
    picked = rng.sample(extra, rng.randint(2, 3))
    constraints = list(model.constraints)
    for con in picked:
        constraints.insert(rng.randint(0, len(constraints)), con)
    return Model(model.name, model.vars, constraints, model.label_order)


def _build_one_agent_per_diseq(model, policy):
    """Post every record but the disequalities through build, then one
    single-offset agent per side of each Diseq record."""
    others = [c for c in model.constraints if not isinstance(c, Diseq)]
    store, rt, ok = build(Model(model.name, model.vars, others, model.label_order),
                          queue_policy=policy, queue_seed=7)
    for con in model.constraints:
        if isinstance(con, Diseq):
            if con.x == con.y:
                ok = ok and con.c != 0
                continue
            ok = (ok and post_diseq(rt, con.x, (((con.y,), (-con.c,)),), f"neq(_{con.x})")
                  and post_diseq(rt, con.y, (((con.x,), (con.c,)),), f"neq(_{con.y})"))
    return store, rt, ok


def _root_and_solutions(store, rt, ok, model):
    ok = ok and rt.run_to_fixpoint()
    if not ok:
        return None, set()
    root = domain_snapshot(store)
    _, solutions = label(rt, model.label_order, all_solutions=True)
    return root, set(solutions)


@pytest.mark.parametrize("policy", ["fifo", "lifo", "random"])
def test_merged_diseq_posting_matches_one_agent_per_record(policy):
    rng = random.Random(21)
    merged_agents = 0
    for trial in range(240):
        model = random_model(rng)
        if trial % 2:
            model = _with_pair_diseqs(rng, model)
        # agents that hold more than one (partner, offset) pair
        merged_agents += sum(sum(len(offsets) for _, offsets in groups) > 1
                             for groups in _diseq_groups(model.constraints).values())
        merged = _root_and_solutions(*build(model, queue_policy=policy, queue_seed=7),
                                     model)
        single = _root_and_solutions(*_build_one_agent_per_diseq(model, policy), model)
        assert merged == single
        assert merged[1] == enumerate_solutions(model.to_ground())
    assert merged_agents > 60


def test_diseq_merge_edge_cases():
    decls = [VarDecl("x", 1, 3), VarDecl("y", 1, 3), VarDecl("z", 1, 3)]
    # Y != X - 1 is X != Y + 1 again; X != X + 3 is dropped
    records = [Diseq(0, 1, 1), Diseq(1, 0, -1), Diseq(0, 0, 3), Diseq(2, 0, 0)]
    assert _diseq_groups(records) == {
        0: (((1,), (-1,)), ((2,), (0,))),
        1: (((0,), (1,)),),
        2: (((0,), (0,)),),
    }
    store, rt, ok = build(Model("m", decls, records, [0, 1, 2]))
    assert ok
    assert [a.name for a in rt.agents] == ["neq(_0)", "neq(_1)", "neq(_2)"]


def _reference_fc_fixpoint(model, domains):
    """Forward checking of every Diseq and Distinct of ``model`` on
    Python sets: while some variable is bound to v, drop each value
    X != Y + c forbids from its partner, until nothing changes.  None on
    a wipe-out, and for X != X + 0, which no value satisfies."""
    sides = []  # (x, z, d): x bound to v bars v + d from z
    for con in model.constraints:
        if isinstance(con, Diseq):
            if con.x == con.y and con.c == 0:
                return None
            sides += [(con.x, con.y, -con.c), (con.y, con.x, con.c)]
        else:
            sides += [(x, z, 0) for x in con.vars for z in con.vars if z != x]
    doms = [set(d) for d in domains]
    changed = True
    while changed:
        changed = False
        for x, z, d in sides:
            if len(doms[x]) == 1 and min(doms[x]) + d in doms[z]:
                doms[z].discard(min(doms[x]) + d)
                if not doms[z]:
                    return None
                changed = True
    return doms


def _random_fc_model(rng):
    """2-6 variables over small domains, holed ones among them, with
    1-5 disequalities (the odd X != X + c) and all_distincts."""
    n = rng.randint(2, 6)
    decls = [random_domain(rng, 6) for _ in range(n)]
    constraints = []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.6:
            x, y = rng.choice(range(n)), rng.choice(range(n))
            constraints.append(Diseq(x, y, rng.randint(-2, 2)))
        else:
            k = rng.randint(2, min(4, n))
            constraints.append(Distinct(tuple(rng.sample(range(n), k))))
    return Model("fc", decls, constraints, list(range(n)))


@pytest.mark.parametrize("policy", ["fifo", "lifo", "random"])
def test_forward_checking_reaches_reference_fixpoint(policy):
    """Every Diseq and every all_distinct under linear and naive is
    forward checking, whose closure is unique: the engine's domains
    equal the set reference at the root, and again after 1-3 free
    variables are bound before one run_to_fixpoint, so that partners
    bound in one fixpoint meet.  An engine failure is a reference
    wipe-out."""
    rng = random.Random(0xFC)
    samples = failed = pruned = 0

    def agree(ok, store, given, context):
        """Check the engine's fixpoint from ``given``; True if it lives."""
        nonlocal samples, failed, pruned
        samples += 1
        expected = _reference_fc_fixpoint(model, given)
        if expected is None:
            assert not ok, context
            failed += 1
            return False
        assert ok, context
        assert [set(store.domain(x).values()) for x in range(len(given))] == expected, \
            context
        pruned += expected != given
        return True

    for trial in range(2000):
        model = _random_fc_model(rng)
        declared = [set(vd.values) if vd.values is not None
                    else set(range(vd.lo, vd.hi + 1)) for vd in model.vars]
        for strategy in ("linear", "naive"):
            store, rt, ok = build(model, SolverConfig(level="fc", alldistinct=strategy),
                                  queue_policy=policy, queue_seed=trial)
            if not agree(ok and rt.run_to_fixpoint(), store, declared, (model, strategy)):
                continue
            free = [x for x in range(len(declared)) if store.domain(x).count > 1]
            bound = dict.fromkeys(rng.sample(free, min(len(free), rng.randint(1, 3))))
            for x in bound:
                bound[x] = rng.choice(list(store.domain(x).values()))
                assert store.bind(x, bound[x])
            given = [{bound[x]} if x in bound else d for x, d in enumerate(declared)]
            agree(rt.run_to_fixpoint(), store, given, (model, strategy, bound))
    assert samples > 7000 and failed > 400 and pruned > 1200, (samples, failed, pruned)


def test_unite_two_var_sum():
    # oracle: x = 5 - y over 1..9 forces both into 1..4
    store, rt = fresh()
    x = store.new_var(make_interval(1, 9))
    y = store.new_var(make_interval(1, 9))
    assert post_nary(rt, NaryLinear(-5, ((1, x), (1, y))), IC)
    assert rt.run_to_fixpoint()
    assert domain_values(store, x) == (1, 2, 3, 4)
    assert domain_values(store, y) == (1, 2, 3, 4)


def test_unite_three_var_already_consistent():
    store, rt = fresh()
    xs = [store.new_var(make_interval(1, 3)) for _ in range(3)]
    assert post_nary(rt, NaryLinear(-6, tuple((1, x) for x in xs)), IC)
    assert rt.run_to_fixpoint()
    for x in xs:
        assert domain_values(store, x) == (1, 2, 3)


def test_unite_mixed_signs():
    # brute force: solutions of 2x - y + 1 = 0 over 0..10 are x in 0..4,
    # y = 2x + 1 in {1,3,5,7,9} -> interval hull 1..9
    sols = [(x, y) for x in range(11) for y in range(11) if 2 * x - y + 1 == 0]
    assert (min(x for x, _ in sols), max(x for x, _ in sols)) == (0, 4)
    assert (min(y for _, y in sols), max(y for _, y in sols)) == (1, 9)
    store, rt = fresh()
    x = store.new_var(make_interval(0, 10))
    y = store.new_var(make_interval(0, 10))
    assert post_nary(rt, NaryLinear(1, ((2, x), (-1, y))), IC)
    assert rt.run_to_fixpoint()
    assert (store.domain(x).lo, store.domain(x).hi) == (0, 4)
    assert (store.domain(y).lo, store.domain(y).hi) == (1, 9)


def test_unite_infeasible_sum_fails():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 3))
    y = store.new_var(make_interval(1, 3))
    assert not post_nary(rt, NaryLinear(-100, ((1, x), (1, y))), IC)


def _reference_bounds_fixpoint(c, terms, domains):
    """The bounds fixpoint of c + sum(a*X) = 0 by plain set filtering:
    keep each value v of X with a*v inside the range the other terms'
    bounds leave, until nothing changes.  None on a wipe-out."""
    doms = [set(d) for d in domains]
    changed = True
    while changed:
        changed = False
        for i, (a, x) in enumerate(terms):
            rest_lo = rest_hi = c
            for j, (b, y) in enumerate(terms):
                if j != i:
                    ends = (b * min(doms[y]), b * max(doms[y]))
                    rest_lo += min(ends)
                    rest_hi += max(ends)
            keep = {v for v in doms[x] if -rest_hi <= a * v <= -rest_lo}
            if not keep:
                return None
            if keep != doms[x]:
                doms[x] = keep
                changed = True
    return doms


def test_unite_reaches_reference_bounds_fixpoint():
    """Random sums of 2-6 terms, coefficients in +-1..+-4, holed domains
    and the odd repeated variable: the reducer's fixpoint is the
    reference bounds fixpoint, wipe-outs included."""
    rng = random.Random(0x5EED)
    pruned = failed = 0
    for _ in range(300):
        decls = [random_domain(rng) for _ in range(rng.randint(2, 6))]
        domains = [list(vd.values) if vd.values is not None
                   else list(range(vd.lo, vd.hi + 1)) for vd in decls]
        terms = tuple((rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                       rng.randrange(len(decls))) for _ in range(rng.randint(2, 6)))
        c = -sum(a * (min(domains[x]) + max(domains[x])) // 2 for a, x in terms) \
            + rng.randint(-4, 4)
        expected = _reference_bounds_fixpoint(c, terms, domains)
        store, rt = fresh()
        for d in domains:
            store.new_var(make_set(d))
        ok = post_nary(rt, NaryLinear(c, terms), IC) and rt.run_to_fixpoint()
        if expected is None:
            assert not ok, (c, terms, domains)
            failed += 1
            continue
        assert ok, (c, terms, domains)
        got = [set(store.domain(x).values()) for x in range(len(domains))]
        assert got == expected, (c, terms, domains)
        pruned += got != [set(d) for d in domains]
    assert pruned > 100 and failed > 20, (pruned, failed)


def _two_pass_reduce(store, c, terms):
    """One run of the n-ary interval reducer with no early exit: the
    forward pass, then the backward pass every time.  The reference
    the reducer must match."""
    n = len(terms)
    los = [0] * n
    his = [0] * n
    t_lo = t_hi = c
    for i, (a, x) in enumerate(terms):
        los[i] = t_lo
        his[i] = t_hi
        d = store.domain(x)
        t_lo += a * (d.lo if a > 0 else d.hi)
        t_hi += a * (d.hi if a > 0 else d.lo)
    if t_lo > 0 or t_hi < 0:
        return False
    cur_lo = cur_hi = 0
    for i in range(n - 1, -1, -1):
        a, x = terms[i]
        if a > 0:
            new_lo = -((his[i] - cur_lo) // a)
            new_hi = (cur_hi - los[i]) // a
        else:
            new_lo = -((cur_hi - los[i]) // -a)
            new_hi = (his[i] - cur_lo) // -a
        d = store.domain(x)
        if new_lo > d.lo or new_hi < d.hi:
            if not store.intersect(x, new_lo, new_hi):
                return False
            d = store.domain(x)
        if a > 0:
            cur_lo -= a * d.hi
            cur_hi -= a * d.lo
        else:
            cur_lo -= a * d.lo
            cur_hi -= a * d.hi
    return cur_lo <= c <= cur_hi


def _recording_store(domains):
    store = Store()
    rt = Runtime(store)
    for d in domains:
        store.new_var(make_set(d))
    events = []
    store.event_sink = lambda kind, var, value: events.append((kind, var, value))
    return store, rt, events


def test_reducer_matches_two_pass_reference():
    """Random sums over holed domains, repeated variables allowed, each
    reduced up to four times with a random narrowing in between: every
    run gives the reference's return value, events in order, and final
    domains."""
    rng = random.Random(0x51AC)
    skipped = narrowed = failed = 0
    for _ in range(1000):
        decls = [random_domain(rng) for _ in range(rng.randint(1, 6))]
        domains = [list(vd.values) if vd.values is not None
                   else list(range(vd.lo, vd.hi + 1)) for vd in decls]
        terms = tuple((rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]),
                       rng.randrange(len(decls))) for _ in range(rng.randint(1, 6)))
        c = -sum(a * (min(domains[x]) + max(domains[x])) // 2 for a, x in terms) \
            + rng.randint(-12, 12)
        ref_store, _, ref_events = _recording_store(domains)
        store, rt, events = _recording_store(domains)
        reduce = _make_reducer(rt, c, terms)
        for _ in range(4):
            expected = _two_pass_reduce(ref_store, c, terms)
            assert reduce(None) == expected, (c, terms, domains)
            assert events == ref_events, (c, terms, domains)
            assert domain_snapshot(store) == domain_snapshot(ref_store)
            if not expected:
                failed += 1
                break
            if events:
                narrowed += 1
            else:
                skipped += 1
            del events[:], ref_events[:]
            x = rng.randrange(len(domains))
            d = store.domain(x)
            lo, hi = d.lo + rng.randint(0, 1), d.hi - rng.randint(0, 1)
            if not (store.intersect(x, lo, hi) and ref_store.intersect(x, lo, hi)):
                break
    assert min(skipped, narrowed, failed) > 100, (skipped, narrowed, failed)


def test_hybrid_collapse_prunes_like_brute_force():
    # x1 + x2 + x3 = 6 over 1..3; after x1 = 1: x2 + x3 = 5
    brute = sorted((x2, x3) for x2 in range(1, 4) for x3 in range(1, 4)
                   if 1 + x2 + x3 == 6)
    store, rt = fresh()
    xs = [store.new_var(make_interval(1, 3)) for _ in range(3)]
    assert post_nary(rt, NaryLinear(-6, tuple((1, x) for x in xs)), AC)
    assert rt.run_to_fixpoint()
    assert store.bind(xs[0], 1) and rt.run_to_fixpoint()
    assert set(domain_values(store, xs[1])) == {x2 for x2, _ in brute}
    assert set(domain_values(store, xs[2])) == {x3 for _, x3 in brute}


@pytest.mark.parametrize("s,c", [(1, -8), (-1, -4)])
def test_hybrid_collapse_spawns_one_agent(s, c):
    # c + 2*x1 + s*x2 + x3 = 0 over 0..6; x3 = 2 leaves a binary
    # equality whose arc fixpoint has holes
    brute = {(v1, v2) for v1 in range(7) for v2 in range(7)
             if c + 2 * v1 + s * v2 + 2 == 0}
    store, rt = fresh()
    xs = [store.new_var(make_interval(0, 6)) for _ in range(3)]
    assert post_nary(rt, NaryLinear(c, ((2, xs[0]), (s, xs[1]), (1, xs[2]))), AC)
    assert rt.run_to_fixpoint() and len(rt.agents) == 1
    assert store.bind(xs[2], 2) and rt.run_to_fixpoint()
    assert [a.name.split("(")[0] for a in rt.agents] == ["lin3_hybrid", "eq_ac"]
    assert set(domain_values(store, xs[0])) == {v1 for v1, _ in brute}
    assert set(domain_values(store, xs[1])) == {v2 for _, v2 in brute}
    assert store.bind(xs[0], 2) and rt.run_to_fixpoint()
    assert (2, store.value(xs[1])) in brute and len(rt.agents) == 2


def test_hybrid_single_term_divisibility():
    # enumeration: 3x = 7 has no integer solution in 0..10
    assert not any(3 * x == 7 for x in range(11))
    store, rt = fresh()
    x = store.new_var(make_interval(0, 10))
    assert not post_nary(rt, NaryLinear(-7, ((3, x),)), AC)


def test_hybrid_ground_check():
    store, rt = fresh()
    x = store.new_var(make_interval(2, 2))
    y = store.new_var(make_interval(3, 3))
    assert post_nary(rt, NaryLinear(-5, ((1, x), (1, y))), AC)
    assert rt.run_to_fixpoint()
    assert not post_nary(rt, NaryLinear(-6, ((1, x), (1, y))), AC)


def test_nary_forward_waits_for_last_variable():
    store, rt = fresh()
    xs = [store.new_var(make_interval(0, 9)) for _ in range(3)]
    assert post_nary(rt, NaryLinear(-10, tuple((1, x) for x in xs)), FC)
    assert rt.run_to_fixpoint()
    assert domain_values(store, xs[2]) == tuple(range(10))  # no pruning yet
    assert store.bind(xs[0], 2) and rt.run_to_fixpoint()
    assert store.bind(xs[1], 3) and rt.run_to_fixpoint()
    assert store.value(xs[2]) == 5


def test_capacity_rejection():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 2 ** 19))
    y = store.new_var(make_interval(1, 2 ** 19))
    with pytest.raises(CapacityError):
        post_nary(rt, NaryLinear(0, ((2 ** 50, x), (-1, y))), IC)


def test_hybrid_collapse_at_the_edge_of_the_budget():
    # 2^61*(x + y - z) = 0: the sum's worst case, 3 * 2^61, fits in 64 bits
    big = 2 ** 61
    model = parse_model("var x in 0..1\nvar y in 0..1\nvar z in 0..1\n"
                        f"lin 0 {big}*x {big}*y {-big}*z = 0\nlabel x y z\n")
    store, rt, ok = build(model, SolverConfig(level="ac"))
    assert ok and rt.run_to_fixpoint()
    rt.push_choice_point()
    assert store.bind(0, 1) and rt.run_to_fixpoint()
    assert any(a.name.startswith("eq_ac(") for a in rt.agents)
    oracle = enumerate_solutions(model.to_ground())
    assert len(oracle) == 3
    result = solve_model(model, SolverConfig(level="ac", mode="all"))
    assert set(result.solutions) == oracle


@pytest.mark.parametrize("line,count", [
    ("lin 0 1*x 1*x -2*y = 0", 3),  # 2x = 2y
    ("lin 1 1*x 1*x -2*y = 0", 0),  # 2x = 2y - 1
    ("lin -1 1*x -1*x 1*y = 0", 3),  # y = 1, any x: a == b after collapse
])
def test_hybrid_collapse_onto_one_variable(line, count):
    # labelling y first leaves the sum's two free terms both on x
    model = parse_model(f"var x in 1..3\nvar y in 1..3\n{line}\nlabel y x\n")
    oracle = enumerate_solutions(model.to_ground())
    assert len(oracle) == count
    result = solve_model(model, SolverConfig(level="ac", mode="all"))
    assert set(result.solutions) == oracle


def _root_domains(model, level):
    store, rt, ok = build(model, SolverConfig(level=level))
    if ok:
        ok = rt.run_to_fixpoint()
    if not ok:
        return None
    return [set(store.domain(i).values()) for i in range(len(model.vars))]


def test_level_ordering_on_random_binary_models():
    rng = random.Random(3)
    checked = 0
    for _ in range(150):
        model = random_model(rng)
        if not any(isinstance(c, BinaryLinear) for c in model.constraints):
            continue
        d_fc = _root_domains(model, "fc")
        d_ic = _root_domains(model, "ic")
        d_ac = _root_domains(model, "ac")
        if d_fc is None or d_ic is None or d_ac is None:
            continue
        checked += 1
        for a, i, f in zip(d_ac, d_ic, d_fc):
            assert a <= i <= f
    assert checked > 30


def test_fixpoint_definitions_on_random_models():
    rng = random.Random(11)
    checked = 0
    for _ in range(120):
        model = random_model(rng)
        for level in ("ic", "ac"):
            config = SolverConfig(level=level)
            store, rt, ok = build(model, config)
            if ok:
                ok = rt.run_to_fixpoint()
            if not ok:
                continue
            checked += 1
            domains = [list(store.domain(i).values()) for i in range(len(model.vars))]
            failed = fixpoint_violations(model, domains, config)
            assert not any(failed.values()), (model, level, failed)
    assert checked > 60
