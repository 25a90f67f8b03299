import io
import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (
    domain_snapshot,
    domain_values,
    post_own_diseq,
    random_domain,
    random_model,
    watch_every_list,
)

from fdprop.domain import make_interval, make_set
from fdprop.linear import (
    BinaryLinear,
    CapacityError,
    ConsistencyLevel,
    Diseq,
    NaryLinear,
    _make_reducer,
    ceil_div,
    diseq_table,
    post_binary,
    post_diseq,
    post_nary,
)
from fdprop.model import (
    Distinct,
    Model,
    SolverConfig,
    VarDecl,
    _diseq_partners,
    build,
    fixpoint_violations,
    parse_model,
    solve_model,
)
from fdprop.oracle import enumerate_solutions
from fdprop.runtime import Event, Runtime
from fdprop.search import label
from fdprop.store import BOUND, DOM, INS, Record, Store

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
    # the name prefix is the agent family the perfbench tracer counts; the
    # eq record and its lin twin -2 + 2x - y = 0 post one agent alike,
    # a pair agent at ic and ac and the sum's own agent at fc
    pair = f"{family}(2*_0=1*_1+2)"
    roots = []
    for post, con, name in (
            (post_binary, BinaryLinear(2, 0, 1, 1, 2), pair),
            (post_nary, NaryLinear(-2, ((2, 0), (-1, 1))),
             "lin2_fwd" if level is FC else pair)):
        store, rt = fresh()
        x = store.new_var(make_set([1, 3, 4, 6]))
        y = store.new_var(make_interval(0, 9))
        assert post(rt, con, level)
        assert [a.name for a in rt.agents] == [name]
        assert rt.run_to_fixpoint()
        roots.append(domain_snapshot(store))
        assert store.bind(x, 3) and rt.run_to_fixpoint()
        assert store.value(y) == 4 and len(rt.agents) == 1
    assert roots[0] == roots[1]


def test_diseq_examples():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    y = store.new_var(make_interval(1, 5))
    assert post_own_diseq(rt, x, {y: (0,)}, "neq(_0)")  # Y != X + 0
    assert [a.name for a in rt.agents] == ["neq(_0)"]
    assert store.bind(x, 3) and rt.run_to_fixpoint()
    assert domain_values(store, y) == (1, 2, 4, 5)

    # X != Y + 2 as its two sides; both bound before either agent runs
    for vx, vy, consistent in ((3, 1, False), (3, 2, True)):
        store, rt = fresh()
        x = store.new_var(make_interval(1, 5))
        y = store.new_var(make_interval(1, 5))
        assert post_own_diseq(rt, x, {y: (-2,)}, "neq(_0)")
        assert post_own_diseq(rt, y, {x: (2,)}, "neq(_1)")
        assert store.bind(x, vx) and store.bind(y, vy)
        assert rt.run_to_fixpoint() == consistent

    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    y = store.new_var(make_interval(1, 5))
    assert post_own_diseq(rt, x, {y: (0, 1, -1)}, "neq(_0)") and rt.run_to_fixpoint()
    assert domain_values(store, y) == (1, 2, 3, 4, 5)  # x free: asleep
    assert store.bind(x, 3) and rt.run_to_fixpoint()
    assert domain_values(store, y) == (1, 5)  # every offset barred


def test_forward_checking_commit_by_mask():
    """X bound to 3 commits against three partners: one bound, tested by
    its value; a holed one whose barred values 3 and 4 all lie outside
    it, left untouched; and W, offsets (1, 2, -1), which bar 4, 5 and 2,
    a mask shifted right onto W's lo.  W = {4, 5} is wiped out by the
    second offset: one remove_bits call fails before it writes or posts
    anything.  W = {4, 5, 7} loses 4 and 5, and 2 lies below it: one
    trail entry for W, one ins.  Either way the agent's record, trailed
    first, has dropped X."""
    for w_values, consistent in (((4, 5), False), ((4, 5, 7), True)):
        store, rt = fresh()
        x = store.new_var(make_interval(1, 5))
        b = store.new_var(make_interval(9, 9))
        o = store.new_var(make_set([1, 2, 8, 9]))
        w = store.new_var(make_set(w_values))
        record = Record((x, b, o, w))
        assert post_diseq(rt, x, record,
                          diseq_table(store, x, {b: (5, 7), o: (0, 1), w: (1, 2, -1)}),
                          "neq(_0)")
        watch_every_list(store)
        events = []
        sink = store.event_sink

        def spy(kind, var, value, sink=sink, events=events):
            events.append((kind, var, value))
            sink(kind, var, value)
        store.event_sink = spy
        rt.push_choice_point()
        assert store.bind(x, 3)
        events.clear()
        mark = len(store._trail)
        o_domain, w_domain = store.domain(o), store.domain(w)
        assert rt.run_to_fixpoint() is consistent
        assert store.domain(o) is o_domain and store.vars[o].stamp == 0
        assert record.live == (b, o, w)
        trailed = [entry[0] for entry in store._trail[mark:]]
        if consistent:
            assert events == [(INS, w, None)]
            assert trailed == [record, store.vars[w]]
            assert store.value(w) == 7
        else:
            assert events == [] and trailed == [record]
            assert store.domain(w) is w_domain and store.vars[w].stamp == 0


@pytest.mark.parametrize("big", [2 ** 40, 2 ** 62, 10 ** 30])
def test_diseq_offsets_far_outside_the_domains(big):
    """An offset no value pair can meet is dropped at posting, so a
    partner with offsets -big, 1 and +big keeps a mask of the domain
    widths and the commit never shifts past them."""
    model = parse_model("var x in 1..3\nvar y in 1..3\nvar z in 1..3\n"
                        f"neq x y {big}\nneq x y {-big}\nneq x y 1\nneq y z {big}\n"
                        "neq x z 0\nlabel x y z\n")
    store, rt, ok = build(model)
    assert ok and rt.run_to_fixpoint()
    oracle = enumerate_solutions(model.to_ground())
    assert len(oracle) == 14
    for policy in ("fifo", "lifo"):
        result = solve_model(model, SolverConfig(mode="all"), queue_policy=policy)
        assert set(result.solutions) == oracle
    assert store.bind(1, 2) and rt.run_to_fixpoint()  # Y's agent commits
    assert domain_values(store, 0) == (1, 2) and domain_values(store, 2) == (1, 2, 3)


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
            ok = (ok and post_own_diseq(rt, con.x, {con.y: (-con.c,)}, f"neq(_{con.x})")
                  and post_own_diseq(rt, con.y, {con.x: (con.c,)}, f"neq(_{con.y})"))
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
        merged_agents += sum(sum(map(len, partners.values())) > 1
                             for partners in _diseq_partners(model.constraints).values())
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
    assert _diseq_partners(records) == {0: {1: [-1], 2: [0]}, 1: {0: [1]}, 2: {0: [0]}}
    store, rt, ok = build(Model("m", decls, records, [0, 1, 2]))
    assert ok
    assert [a.name for a in rt.agents] == ["neq(_0)", "neq(_1)", "neq(_2)"]


def _fc_pass(sides, doms):
    """One round of forward checking over (x, z, d) sides, each meaning
    X bound to v bars v + d from Z: whether a domain changed, or None on
    a wipe-out."""
    changed = False
    for x, z, d in sides:
        if len(doms[x]) == 1 and min(doms[x]) + d in doms[z]:
            doms[z].discard(min(doms[x]) + d)
            if not doms[z]:
                return None
            changed = True
    return changed


def _bounds_pass(c, terms, doms):
    """One round of bounds reasoning on c + sum(a*X) = 0: keep each
    value v of a term's X with a*v inside the range the other terms'
    bounds leave, term by term.  Whether a domain changed, or None on a
    wipe-out."""
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
    return changed


def _support_pass(c, terms, doms):
    """Supports on c + sum(a*X) = 0: keep each value of a variable that
    some assignment of all the sum's variables extends to a solution.
    With one free variable this solves for it, with none it checks the
    ground sum.  Whether a domain changed, or None on a wipe-out."""
    scope = sorted({x for _, x in terms})
    keep = {x: set() for x in scope}
    solved = False
    for values in itertools.product(*(sorted(doms[x]) for x in scope)):
        value = dict(zip(scope, values))
        if c + sum(a * value[x] for a, x in terms) == 0:
            solved = True
            for x, v in value.items():
                keep[x].add(v)
    if not solved:
        return None
    changed = any(keep[x] != doms[x] for x in scope)
    for x in scope:
        doms[x] = keep[x]
    return changed


def _reference_fixpoint(model, domains, level):
    """The fixpoint of ``model`` at ``level`` ("fc", "ic" or "ac") by
    chaotic iteration on Python sets from ``domains``: apply every
    narrowing in turn until none changes a domain.  The narrowings are
    monotone, so any order reaches their one greatest common fixpoint
    (Apt, "The essence of constraint propagation", TCS 221, 1999).  None
    on a wipe-out, and for X != X + 0, which no value satisfies.

    - Each Diseq and Distinct is forward checked.
    - Each linear equality, a*X = b*Y + c read as the sum
      -c + a*X - b*Y = 0, with its free terms those of a variable with
      more than one value:
      - at ic, and at ac while more than two terms are free: bounds
        reasoning;
      - at ac with two or fewer free terms: supports, which keep a pair
        arc consistent and solve or check a sum with one or no free
        term;
      - at fc: supports once one or no term is free."""
    sides = []
    sums = []
    for con in model.constraints:
        if isinstance(con, Diseq):
            if con.x == con.y and con.c == 0:
                return None
            sides += [(con.x, con.y, -con.c), (con.y, con.x, con.c)]
        elif isinstance(con, Distinct):
            sides += [(x, z, 0) for x in con.vars for z in con.vars if z != x]
        elif isinstance(con, BinaryLinear):
            sums.append((-con.c, ((con.a, con.x), (-con.b, con.y))))
        else:
            sums.append((con.c, con.terms))
    doms = [set(d) for d in domains]
    while True:
        changed = _fc_pass(sides, doms)
        if changed is None:
            return None
        for c, terms in sums:
            free = sum(len(doms[x]) > 1 for _, x in terms)
            if level == "ic" or (level == "ac" and free > 2):
                step = _bounds_pass(c, terms, doms)
            elif level == "ac" or free <= 1:
                step = _support_pass(c, terms, doms)
            else:
                continue
            if step is None:
                return None
            changed = changed or step
        if not changed:
            return doms


class _Tally:
    """Engine fixpoints checked against ``_reference_fixpoint``: how
    many, how many the reference wiped out, and how many it pruned."""

    def __init__(self):
        self.samples = self.failed = self.pruned = 0

    def agree(self, ok, store, model, given, level, context):
        """Check the engine's fixpoint from ``given``: an engine failure
        must be a reference wipe-out, and a live fixpoint must equal the
        reference.  Returns the reference, or None on a wipe-out."""
        self.samples += 1
        expected = _reference_fixpoint(model, given, level)
        if expected is None:
            assert not ok, context
            self.failed += 1
            return None
        assert ok, context
        assert [set(store.domain(x).values()) for x in range(len(given))] == expected, \
            context
        self.pruned += expected != given
        return expected


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
    tally = _Tally()
    for trial in range(2000):
        model = _random_fc_model(rng)
        declared = [set(vd.values) if vd.values is not None
                    else set(range(vd.lo, vd.hi + 1)) for vd in model.vars]
        for strategy in ("linear", "naive"):
            store, rt, ok = build(model, SolverConfig(level="fc", alldistinct=strategy),
                                  queue_policy=policy, queue_seed=trial)
            if tally.agree(ok and rt.run_to_fixpoint(), store, model, declared, "fc",
                           (model, strategy)) is None:
                continue
            free = [x for x in range(len(declared)) if store.domain(x).count > 1]
            bound = dict.fromkeys(rng.sample(free, min(len(free), rng.randint(1, 3))))
            for x in bound:
                bound[x] = rng.choice(list(store.domain(x).values()))
                assert store.bind(x, bound[x])
            given = [{bound[x]} if x in bound else d for x, d in enumerate(declared)]
            tally.agree(rt.run_to_fixpoint(), store, model, given, "fc",
                        (model, strategy, bound))
    assert tally.samples > 7000 and tally.failed > 400 and tally.pruned > 1200, \
        vars(tally)


def _random_linear_model(rng):
    """``random_model``, and in about one in two a further sum of 3-4
    terms drawn with replacement, so that a term's variable may repeat
    and a hybrid sum can end with two free terms on one variable."""
    model = random_model(rng)
    if rng.random() < 0.5:
        n = len(model.vars)
        terms = tuple((rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(n))
                      for _ in range(rng.randint(3, 4)))
        mid = [(vd.lo + vd.hi) // 2 for vd in model.vars]
        c = -sum(a * mid[x] for a, x in terms) + rng.randint(-3, 3)
        model.constraints.append(NaryLinear(c, terms))
    return model


@pytest.mark.parametrize("policy", ["fifo", "lifo", "random"])
def test_linear_models_reach_reference_fixpoint(policy):
    """Random models of binary and n-ary equalities, disequalities and
    all_distincts, built at fc, ic and ac: the engine's domains equal
    the set reference of ``_reference_fixpoint``.  It checks the root
    fixpoint, then binds 1-3 free variables before one run_to_fixpoint,
    twice, checking after each, so that terms bound together reach a
    hybrid sum in one fixpoint and its pair is maintained across
    fixpoints.  An engine failure is a reference wipe-out."""
    rng = random.Random(0x14)
    tally = _Tally()
    pairs = 0  # ac samples with a sum of 3+ terms left with two free ones
    for trial in range(3000):
        model = _random_linear_model(rng)
        sums = [con.terms for con in model.constraints
                if isinstance(con, NaryLinear) and len(con.terms) > 2]
        declared = [set(vd.values) if vd.values is not None
                    else set(range(vd.lo, vd.hi + 1)) for vd in model.vars]
        for level in ("fc", "ic", "ac"):
            store, rt, ok = build(model, SolverConfig(level=level),
                                  queue_policy=policy, queue_seed=trial)
            given = list(declared)
            fixpoints = [tally.agree(ok and rt.run_to_fixpoint(), store, model, given,
                                     level, (model, level))]
            for _ in range(2):
                free = [x for x in range(len(given)) if store.domain(x).count > 1]
                if fixpoints[-1] is None or not free:
                    break
                for x in rng.sample(free, min(len(free), rng.randint(1, 3))):
                    value = rng.choice(list(store.domain(x).values()))
                    assert store.bind(x, value)
                    given[x] = {value}
                fixpoints.append(tally.agree(rt.run_to_fixpoint(), store, model, given,
                                             level, (model, level, given)))
            if level == "ac":
                pairs += sum(fixpoint is not None and any(
                    sum(len(fixpoint[x]) > 1 for _, x in terms) == 2 for terms in sums)
                    for fixpoint in fixpoints)
    assert tally.samples > 15000 and tally.failed > 6000 and tally.pruned > 3500, \
        vars(tally)
    assert pairs > 80, pairs


def test_two_term_sums_reach_reference_fixpoint():
    """Two-term sums with terms drawn with replacement, built at fc, ic
    and ac: the engine's domains equal ``_reference_fixpoint`` at the
    root and after one free variable is bound.  At ic a sum on two
    variables is a pair agent, which narrows bounds but does not
    revise, and a sum on one variable keeps the interval reducer: both
    stop at the bounds fixpoint, short of solving (a + b)*X = -c."""
    rng = random.Random(0x23)
    tally = _Tally()
    one_var_ic = 0  # live ic fixpoints of a sum with both terms on one free variable
    for _ in range(1000):
        n = rng.randint(1, 3)
        terms = tuple((rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(n))
                      for _ in range(2))
        decls = [random_domain(rng, 6) for _ in range(n)]
        c = -sum(a * ((decls[x].lo + decls[x].hi) // 2) for a, x in terms) + rng.randint(-3, 3)
        model = Model("two", decls, [NaryLinear(c, terms)], list(range(n)))
        declared = [set(vd.values) if vd.values is not None
                    else set(range(vd.lo, vd.hi + 1)) for vd in model.vars]
        for level in ("fc", "ic", "ac"):
            store, rt, ok = build(model, SolverConfig(level=level))
            root = tally.agree(ok and rt.run_to_fixpoint(), store, model, declared,
                               level, (model, level))
            if root is None:
                continue
            x = terms[0][1]
            if level == "ic" and terms[1][1] == x and len(root[x]) > 1:
                one_var_ic += 1
            free = [v for v in range(n) if len(root[v]) > 1]
            if free:
                v = rng.choice(free)
                value = rng.choice(sorted(root[v]))
                assert store.bind(v, value)
                given = [{value} if u == v else d for u, d in enumerate(declared)]
                tally.agree(rt.run_to_fixpoint(), store, model, given, level,
                            (model, level, given))
    assert tally.samples > 4000 and tally.failed > 1500 and tally.pruned > 1200, \
        vars(tally)
    assert one_var_ic > 40, one_var_ic


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
    while True:
        changed = _bounds_pass(c, terms, doms)
        if changed is None:
            return None
        if not changed:
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
    watch_every_list(store)
    events = []
    store.event_sink = lambda kind, var, value: events.append((kind, var, value))
    return store, rt, events


def test_reducer_matches_two_pass_reference():
    """Random sums over holed domains, repeated variables allowed, each
    reduced up to four times with a random narrowing in between: every
    run gives the reference's return value, events in order, and final
    domains.  Every third sum has only coefficients of 1, so the unit
    body meets the same general reference."""
    rng = random.Random(0x51AC)
    totals = {"skipped": 0, "narrowed": 0, "failed": 0}
    unit = dict(totals)
    for case in range(1500):
        decls = [random_domain(rng) for _ in range(rng.randint(1, 6))]
        domains = [list(vd.values) if vd.values is not None
                   else list(range(vd.lo, vd.hi + 1)) for vd in decls]
        coefficients = [1] if case % 3 == 2 else [-4, -3, -2, -1, 1, 2, 3, 4]
        terms = tuple((rng.choice(coefficients), rng.randrange(len(decls)))
                      for _ in range(rng.randint(1, 6)))
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
            outcome = "failed" if not expected else "narrowed" if events else "skipped"
            totals[outcome] += 1
            if case % 3 == 2:
                unit[outcome] += 1
            if not expected:
                break
            del events[:], ref_events[:]
            x = rng.randrange(len(domains))
            d = store.domain(x)
            lo, hi = d.lo + rng.randint(0, 1), d.hi - rng.randint(0, 1)
            if not (store.intersect(x, lo, hi) and ref_store.intersect(x, lo, hi)):
                break
    assert min(totals.values()) > 100, totals
    assert min(unit.values()) > 50, unit


@pytest.mark.parametrize("level", [IC, AC])
def test_unit_sums_take_the_unit_reducer(level):
    """The reducer body is chosen from the coefficients at posting: a
    sum whose coefficients are all 1 runs ``reduce_unit`` as its rule
    action, at ic and in the ac hybrid, and a sum with a 2 does not."""
    for coefficients, body in (((1, 1, 1), "reduce_unit"), ((1, 2, 1), "reduce")):
        store, rt = fresh()
        xs = [store.new_var(make_interval(0, 9)) for _ in range(3)]
        assert post_nary(rt, NaryLinear(-12, tuple(zip(coefficients, xs))), level)
        assert rt.agents[0].rules[0].action.__name__ == body, coefficients


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
def test_hybrid_collapse_stays_one_agent(s, c):
    # c + 2*x1 + s*x2 + x3 = 0 over 0..6; x3 = 2 leaves a binary
    # equality whose arc fixpoint has holes, run by the sum's own agent
    brute = {(v1, v2) for v1 in range(7) for v2 in range(7)
             if c + 2 * v1 + s * v2 + 2 == 0}
    store, rt = fresh()
    xs = [store.new_var(make_interval(0, 6)) for _ in range(3)]
    assert post_nary(rt, NaryLinear(c, ((2, xs[0]), (s, xs[1]), (1, xs[2]))), AC)
    assert rt.run_to_fixpoint() and len(rt.agents) == 1
    assert store.bind(xs[2], 2) and rt.run_to_fixpoint()
    assert [a.name for a in rt.agents] == ["lin3_hybrid"]
    assert set(domain_values(store, xs[0])) == {v1 for v1, _ in brute}
    assert set(domain_values(store, xs[1])) == {v2 for _, v2 in brute}
    assert store.bind(xs[0], 2) and rt.run_to_fixpoint()
    assert (2, store.value(xs[1])) in brute and len(rt.agents) == 1


def test_hybrid_pair_ignores_a_queued_bound_of_the_third_term():
    # x1 + x2 + x3 = 6 over 0..6.  One step moves x3's lower bound and
    # then binds it, queueing bound(_2) and then ins(_2).  Under lifo
    # the ins record is taken first: the agent falls through to the
    # pair rule for x1 + x2 = 2 while bound(_2) still waits, and that
    # stale record then reaches the pair rule, which must pass it by.
    store = Store()
    trace = io.StringIO()
    rt = Runtime(store, queue_policy="lifo", trace=trace)
    xs = [store.new_var(make_interval(0, 6)) for _ in range(3)]
    assert post_nary(rt, NaryLinear(-6, tuple((1, x) for x in xs)), AC)
    assert rt.run_to_fixpoint()
    assert store.intersect(xs[2], 1, 6) and store.bind(xs[2], 4)
    assert [repr(record[0]) for record in rt.queue] == ["bound(_2)", "ins(_2)"]
    trace.seek(0)
    trace.truncate()
    assert rt.run_to_fixpoint()
    pair_wakes = [line.split("\t")[2] for line in trace.getvalue().splitlines()
                  if line.split("\t")[3] == "1"]
    assert pair_wakes == ["generated", "bound(_1)", "bound(_0)", "bound(_2)"]
    assert [a.name for a in rt.agents] == ["lin3_hybrid"]
    assert domain_values(store, xs[0]) == domain_values(store, xs[1]) == (0, 1, 2)
    # a record of a bound term's variable says nothing about the pair,
    # whatever its kind: the pair rule changes no domain on it
    pair_rule = rt.agents[0].rules[1]
    for kind, value in ((BOUND, None), (INS, None), (DOM, 1)):
        assert pair_rule.action(Event(kind, xs[2], value))
        assert domain_values(store, xs[0]) == domain_values(store, xs[1]) == (0, 1, 2)
    assert store.bind(xs[0], 0) and rt.run_to_fixpoint()
    assert store.value(xs[1]) == 2


def test_hybrid_entry_onto_one_variable_keeps_no_earlier_pair():
    # x - x + y - z = 0 over 1..3.  Binding x first leaves the pair
    # y = z; after the backtrack, binding y and z leaves two free terms
    # on x, which hold for any x.  The pair rule stays the agent's rule
    # but must have dropped y = z: records of y and z change nothing.
    store, rt = fresh()
    x, y, z = (store.new_var(make_interval(1, 3)) for _ in range(3))
    assert post_nary(rt, NaryLinear(0, ((1, x), (-1, x), (1, y), (-1, z))), AC)
    assert rt.run_to_fixpoint()
    cp = rt.push_choice_point()
    assert store.bind(x, 1) and rt.run_to_fixpoint()
    assert store.bind(y, 2) and rt.run_to_fixpoint() and store.value(z) == 2
    rt.backtrack_to(cp)
    assert store.bind(y, 2) and store.bind(z, 2) and rt.run_to_fixpoint()
    agent = rt.agents[0]
    assert agent.rule == 1 and domain_values(store, x) == (1, 2, 3)
    for event in (Event(DOM, y, 2), Event(BOUND, z, None)):
        assert agent.rules[1].action(event)
    assert [domain_values(store, v) for v in (x, y, z)] == [(1, 2, 3), (2,), (2,)]


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
    agents = len(rt.agents)
    rt.push_choice_point()
    assert store.bind(0, 1) and rt.run_to_fixpoint()
    assert len(rt.agents) == agents  # the sum collapses in place
    assert (store.value(1), store.value(2)) == (0, 1)  # y - z = -1
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
