import dataclasses
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import (
    domain_snapshot,
    domain_values,
    random_domain,
    random_model,
    watch_every_list,
)

import fdprop.alldistinct as alldistinct
import fdprop.model
from fdprop.alldistinct import Strategy, outof_reducer, post_alldistinct
from fdprop.benchmarks import get_benchmark
from fdprop.domain import is_subset_of, make_interval, make_set
from fdprop.model import Diseq, Distinct, SolverConfig, build, fixpoint_violations, solve_model
from fdprop.oracle import enumerate_solutions
from fdprop.runtime import END, Runtime
from fdprop.search import label
from fdprop.store import Record, Store


def fresh(domains):
    store = Store()
    rt = Runtime(store)
    xs = [store.new_var(d) for d in domains]
    return store, rt, xs


def test_linear_space_excludes_on_binding():
    store, rt, xs = fresh([make_interval(1, 5)] * 3)
    assert post_alldistinct(rt, xs, Strategy.LINEAR_SPACE)
    assert store.bind(xs[1], 2) and rt.run_to_fixpoint()
    assert domain_values(store, xs[0]) == (1, 3, 4, 5)
    assert domain_values(store, xs[2]) == (1, 3, 4, 5)


def test_agent_counts_per_strategy():
    for strategy, expect in ((Strategy.NAIVE_PAIRWISE, 4),
                             (Strategy.LINEAR_SPACE, 4),
                             (Strategy.WEAK_AC, 4)):
        store, rt, xs = fresh([make_interval(1, 9)] * 4)
        assert post_alldistinct(rt, xs, strategy)
        live = [a for a in rt.agents if a.rule != END]
        assert len(live) == expect, strategy


def test_duplicate_variable_is_inconsistent():
    for strategy in Strategy:
        store, rt, xs = fresh([make_interval(1, 9)] * 2)
        assert not post_alldistinct(rt, (xs[0], xs[1], xs[0]), strategy)


def test_outof_reducer_pigeonhole_failure():
    store, rt, xs = fresh([make_interval(1, 2)] * 3)
    assert not outof_reducer(store, xs[0], Record(tuple(xs)))


def test_outof_reducer_exact_fill_excludes():
    store, rt, xs = fresh([make_interval(1, 2), make_interval(1, 2),
                           make_interval(1, 3)])
    assert outof_reducer(store, xs[0], Record(tuple(xs)))
    assert rt.run_to_fixpoint()
    assert store.value(xs[2]) == 3


def test_outof_reducer_disjoint_noop():
    store, rt, xs = fresh([make_interval(1, 3), make_set([4, 5]),
                           make_set([6, 7])])
    assert outof_reducer(store, xs[0], Record(tuple(xs)))
    assert domain_values(store, xs[1]) == (4, 5)
    assert domain_values(store, xs[2]) == (6, 7)


def _full_scan_outof_reducer(store, x, others):
    """The pigeonhole filter as a plain full scan: every neighbour goes
    through ``is_subset_of``, whatever the outcome.  The reference the
    early-exit reducer must match."""
    vars_ = store.vars
    dx = vars_[x].domain
    n = dx.count
    m = 0
    outside = []
    for z in others:
        if is_subset_of(vars_[z].domain, dx):
            m += 1
        elif vars_[z].domain.count != 1:
            outside.append(z)
    if m + 1 > n:
        return False
    if m + 1 == n:
        values = list(dx.values())
        for z in outside:
            for v in values:
                if not store.exclude(z, v):
                    return False
    return True


def _random_outof_case(rng):
    """D(x) and 2-8 neighbours: bound ones (in and out of D(x)), holed
    or whole subsets of D(x), and unrelated random domains."""
    vd = random_domain(rng, 6)
    dx = list(vd.values) if vd.values is not None else list(range(vd.lo, vd.hi + 1))
    domains = [dx]
    for _ in range(rng.randint(2, 8)):
        kind = rng.random()
        if kind < 0.3:
            domains.append([rng.randint(min(dx) - 1, max(dx) + 1)])
        elif kind < 0.65:
            domains.append(rng.sample(dx, rng.randint(1, len(dx))))
        else:
            other = random_domain(rng, 6)
            domains.append(list(other.values) if other.values is not None
                           else list(range(other.lo, other.hi + 1)))
    return domains


def _commit_some(rng, domains, pos):
    """Turn up to three elements other than the one at ``pos`` into
    committed ones, as an element's commitment leaves them: bound to a
    value that no other domain still holds.  Returns their positions;
    a value is chosen only if no other domain is left empty."""
    committed = set()
    for _ in range(rng.randint(0, 3)):
        i = rng.randrange(len(domains))
        if i == pos or i in committed:
            continue
        vals = sorted(set().union(*domains))
        w = rng.randint(vals[0] - 1, vals[-1] + 1)
        if any(set(d) == {w} for j, d in enumerate(domains) if j != i):
            continue
        domains[i] = [w]
        for j, d in enumerate(domains):
            if j != i:
                domains[j] = [v for v in d if v != w]
        committed.add(i)
    return committed


def _run_recorded(reducer, domains, pos):
    """Run ``reducer(store, x, scope)`` on a fresh store whose variables
    have ``domains``; x is the one at ``pos`` and scope is all of them."""
    store = Store()
    scope = tuple(store.new_var(make_set(d)) for d in domains)
    watch_every_list(store)
    events = []
    store.event_sink = lambda kind, var, value: events.append((kind, var, value))
    result = reducer(store, scope[pos], scope)
    return result, events, domain_snapshot(store)


def _full_scan_on_scope(store, x, scope):
    return _full_scan_outof_reducer(store, x, tuple(z for z in scope if z != x))


def _live_reducer(committed):
    """The reducer given a live record that holds every element of the
    scope but the ``committed`` positions, in scope order."""
    def run(store, x, scope):
        live = tuple(z for i, z in enumerate(scope) if i not in committed)
        return outof_reducer(store, x, Record(live))
    return run


def test_outof_reducer_matches_full_scan():
    """Over random stores the early-exit reducer, given a live record
    of the whole list with x at a random position, gives the full
    scan's return value, events in order, and final domains.  Given a
    live record without the committed elements, it scans the live ones
    only and still gives what the full scan over the whole list
    gives."""
    rng = random.Random(0xA11D)
    outcomes = {"failed": 0, "excluded": 0, "no_op": 0}
    with_committed = dict(outcomes)
    for _ in range(3000):
        domains = _random_outof_case(rng)
        pos = rng.randrange(len(domains))
        domains.insert(pos, domains.pop(0))
        committed = _commit_some(rng, domains, pos)
        expected = _run_recorded(_full_scan_on_scope, domains, pos)
        assert _run_recorded(_live_reducer(()), domains, pos) == expected, (domains, pos)
        assert _run_recorded(_live_reducer(committed), domains, pos) == expected, \
            (domains, pos, committed)
        result, events, _ = expected
        outcome = "failed" if not result else "excluded" if events else "no_op"
        outcomes[outcome] += 1
        with_committed[outcome] += bool(committed)
    assert min(outcomes.values()) > 100, outcomes
    assert min(with_committed.values()) > 50, with_committed


def _spy_on_exclusion_agents(monkeypatch):
    """Record (record, its members, element, agent) for every exclusion
    agent, an all_distinct's or a disequality's, posted from now on.  A
    record's members are its ``live`` tuple when its first agent is
    posted."""
    posted = []
    members = {}
    post = alldistinct.post_diseq

    def spy(rt, x, record, table, name, reduce=None):
        members.setdefault(id(record), record.live)
        first = len(rt.agents)
        ok = post(rt, x, record, table, name, reduce)
        posted.append((record, members[id(record)], x, rt.agents[first]))
        return ok

    monkeypatch.setattr(alldistinct, "post_diseq", spy)
    monkeypatch.setattr(fdprop.model, "post_diseq", spy)
    return posted


def _assert_live_tuples(posted):
    """Each record's ``live`` tuple holds, in order, its members but
    those whose agent on the record has reached END."""
    ended = {}
    for record, members, x, agent in posted:
        ended.setdefault(id(record), (record, members, set()))
        if agent.rule == END:
            ended[id(record)][2].add(x)
    for record, members, done in ended.values():
        assert record.live == tuple(z for z in members if z not in done)


def _checked_search(model, config, queue, monkeypatch):
    """Search the whole tree, checking the live tuples after posting,
    after every successful fixpoint and after every backtrack.
    Returns the number of checks and the solutions."""
    posted = _spy_on_exclusion_agents(monkeypatch)
    store, rt, ok = build(model, config, queue_policy=queue, queue_seed=3)
    monkeypatch.undo()
    if not ok:
        return 0, None
    checks = [0]
    fixpoint = rt.run_to_fixpoint
    backtrack = rt.backtrack_to

    def run_to_fixpoint():
        ok = fixpoint()
        if ok:
            _assert_live_tuples(posted)
            checks[0] += 1
        return ok

    def backtrack_to(cp):
        backtrack(cp)
        _assert_live_tuples(posted)
        checks[0] += 1

    rt.run_to_fixpoint = run_to_fixpoint
    rt.backtrack_to = backtrack_to
    _assert_live_tuples(posted)
    if not rt.run_to_fixpoint():
        return checks[0], None
    _, solutions = label(rt, model.label_order, all_solutions=True)
    return checks[0], solutions


@pytest.mark.parametrize("queue", ["fifo", "lifo", "random"])
def test_live_tuples_hold_the_uncommitted_elements_at_every_node(queue, monkeypatch):
    """Over random all_distinct models and magic(3), at every node of a
    whole search, each constraint's live tuple is exactly its elements
    whose agent is not at END, in list order; the solutions are those
    of the brute-force oracle."""
    rng = random.Random(25)
    checks = 0
    for model in _distinct_models(rng, 30):
        expected = enumerate_solutions(model.to_ground())
        for strategy in ("linear", "wac"):
            n, solutions = _checked_search(model, SolverConfig(alldistinct=strategy),
                                           queue, monkeypatch)
            checks += n
            assert set(solutions or ()) == expected, (model, strategy)
    n, solutions = _checked_search(get_benchmark("magic(3)"),
                                   SolverConfig(level="ic", alldistinct="wac"),
                                   queue, monkeypatch)
    assert len(solutions) == 8
    assert n > 20 and checks > 200, (n, checks)


@pytest.mark.parametrize("queue", ["fifo", "lifo"])
def test_exclusion_records_hold_the_uncommitted_members_at_every_node(queue, monkeypatch):
    """Over queens(8), whose neq agents all share one record, and
    holed_chain(3), whose three neq agents have one record each, each
    in three shuffled posting orders: at every node of a whole search,
    each exclusion record's live tuple is exactly its members whose
    agent on it is not at END, in order; the solutions all hold, and
    there are as many as are known (queens(8) is past the oracle's
    cap)."""
    for name, level, records, count in (("queens(8)", "ac", 1, 92),
                                        ("holed_chain(3)", "ic", 3, 2)):
        model = get_benchmark(name)
        ground = model.to_ground()
        for order in (1, 2, 3):
            constraints = list(model.constraints)
            random.Random(order).shuffle(constraints)
            shuffled = dataclasses.replace(model, constraints=constraints)
            posted = _spy_on_exclusion_agents(monkeypatch)
            build(shuffled)
            monkeypatch.undo()
            assert len({id(record) for record, *_ in posted}) == records
            n, solutions = _checked_search(shuffled, SolverConfig(level=level), queue,
                                           monkeypatch)
            assert len(set(solutions)) == count and n > 2 * count, (name, order)
            assert all(pred(*[s[x] for x in scope])
                       for s in solutions for scope, pred in ground.constraints)


def test_weak_ac_root_failure_without_labeling():
    store, rt, xs = fresh([make_interval(1, 2)] * 3)
    assert not post_alldistinct(rt, xs, Strategy.WEAK_AC)


def test_weak_ac_assigns_without_labeling():
    store, rt, xs = fresh([make_interval(1, 2), make_interval(1, 2),
                           make_interval(1, 3)])
    assert post_alldistinct(rt, xs, Strategy.WEAK_AC)
    assert rt.run_to_fixpoint()
    assert store.value(xs[2]) == 3


def test_weak_ac_wakes_on_inner_exclusion():
    """Removing 2 from dom(x) leaves {1,3}, filled by y: the one agent
    of x must hear that dom event and bar 1 and 3 from z."""
    store, rt, xs = fresh([make_interval(1, 3), make_set([1, 3]),
                           make_set([1, 3, 5])])
    assert post_alldistinct(rt, xs, Strategy.WEAK_AC)
    assert rt.run_to_fixpoint()
    assert len(rt.agents) == 3
    assert domain_values(store, xs[2]) == (1, 3, 5)
    assert store.exclude(xs[0], 2) and rt.run_to_fixpoint()
    assert store.value(xs[2]) == 5


def _distinct_models(rng, count):
    made = 0
    while made < count:
        model = random_model(rng)
        if any(isinstance(c, Distinct) for c in model.constraints):
            made += 1
            yield model


def _root_domains(model, strategy):
    store, rt, ok = build(model, SolverConfig(alldistinct=strategy))
    if ok:
        ok = rt.run_to_fixpoint()
    if not ok:
        return None
    return [set(store.domain(i).values()) for i in range(len(model.vars))]


def _pairwise(model):
    """The model with each all_distinct replaced by its pairwise
    disequality records, which ``build`` posts as ``neq`` agents."""
    constraints = []
    for con in model.constraints:
        if isinstance(con, Distinct):
            constraints += [Diseq(x, y, 0) for i, x in enumerate(con.vars)
                            for y in con.vars[i + 1:]]
        else:
            constraints.append(con)
    return dataclasses.replace(model, constraints=constraints)


def test_linear_equals_naive_pruning():
    # the linear all_distinct prunes at the root exactly as the naive
    # decomposition into pairwise disequalities does
    rng = random.Random(8)
    for model in _distinct_models(rng, 80):
        assert _root_domains(model, "linear") == _root_domains(_pairwise(model), "linear")


def test_weak_ac_dominates_linear():
    rng = random.Random(9)
    for model in _distinct_models(rng, 80):
        d_wac = _root_domains(model, "wac")
        d_lin = _root_domains(model, "linear")
        if d_lin is None:
            # anything the weaker strategy refutes at the root, the
            # stronger one must refute as well
            assert d_wac is None
            continue
        if d_wac is None:
            continue
        for w, l in zip(d_wac, d_lin):
            assert w <= l


def test_weak_ac_definition_holds_at_root():
    rng = random.Random(10)
    config = SolverConfig(alldistinct="wac")
    for model in _distinct_models(rng, 80):
        store, rt, ok = build(model, config)
        if ok:
            ok = rt.run_to_fixpoint()
        if not ok:
            continue
        domains = [list(store.domain(i).values()) for i in range(len(model.vars))]
        failed = fixpoint_violations(model, domains, config)
        assert not any(failed.values()), (model, failed)


def test_solution_sets_match_brute_force_all_strategies():
    rng = random.Random(12)
    for model in _distinct_models(rng, 25):
        ground = model.to_ground()
        expected = enumerate_solutions(ground)
        for strategy in ("naive", "linear", "wac"):
            r = solve_model(model, SolverConfig(alldistinct=strategy, mode="all"))
            assert set(r.solutions) == expected, (model, strategy)


SRC = Path(__file__).resolve().parent.parent / "src"

# Posting is linear in the list's length.  Peak address space of the
# child below, measured: 132 MB for bench:magic(200), a 40,000-element
# all_distinct, and 63 MB for the 20,000-variable model.  The limit
# leaves more than a 2x margin over the larger.  A posting quadratic in
# the length runs out of memory under 1 GB on either input.
ADDRESS_LIMIT = 320 << 20

BUILD_CHILD = """
import sys
from fdprop.benchmarks import get_benchmark
from fdprop.model import build, parse_model
ref = sys.argv[1]
if ref.startswith("bench:"):
    model = get_benchmark(ref[len("bench:"):])
else:
    with open(ref, encoding="utf-8") as f:
        model = parse_model(f.read())
store, rt, ok = build(model)
print(ok, len(rt.agents))
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))


@pytest.mark.parametrize("ref,agents", [
    ("bench:magic(200)", 200 * 200 + 2 * 200 + 2),
    ("long.model", 20000),
], ids=["magic200", "alldistinct20000"])
def test_posting_long_alldistinct_fits_small_address_space(ref, agents, tmp_path):
    # only the child runs under the limit, never the test process
    if not ref.startswith("bench:"):
        names = [f"x{i}" for i in range(agents)]
        (tmp_path / ref).write_text(
            "".join(f"var {v} in 1..{agents}\n" for v in names)
            + "alldistinct " + " ".join(names) + "\nlabel " + " ".join(names) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", BUILD_CHILD, ref],
                       cwd=tmp_path, env=env, capture_output=True, text=True,
                       timeout=120, preexec_fn=_limit_address_space)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True", str(agents)]
