import itertools
import random
import time

import pytest

from conftest import domain_snapshot, post_own_diseq, random_model

from fdprop.alldistinct import Strategy, post_alldistinct
from fdprop.benchmarks import queens_model
from fdprop.domain import make_interval, make_set, members
from fdprop.linear import ConsistencyLevel, NaryLinear, post_nary
from fdprop.model import Model, SolverConfig, VarDecl, solve_model
from fdprop.oracle import enumerate_solutions
from fdprop.runtime import Runtime
from fdprop.search import label
from fdprop.store import InvariantError, Store


def test_single_variable_no_constraints():
    store = Store()
    rt = Runtime(store)
    x = store.new_var(make_interval(3, 3))
    stats, sols = label(rt, [x])
    assert len(sols) == 1 and stats.backtracks == 0
    assert sols == [(3,)]


def test_long_branch_does_not_recurse():
    model = Model("wide")
    model.vars = [VarDecl(f"x{i}", 0, 1) for i in range(1200)]
    model.label_order = list(range(1200))
    r = solve_model(model, SolverConfig())
    assert len(r.solutions) == 1 and r.backtracks == 0
    assert r.solutions == [(0,) * 1200]


def brute_queens(n):
    sols = set()
    for perm in itertools.permutations(range(1, n + 1)):
        if all(abs(perm[i] - perm[j]) != j - i
               for i in range(n) for j in range(i + 1, n)):
            sols.add(perm)
    return sols


def test_queens8_all_solutions_match_permutation_oracle():
    expected = brute_queens(8)
    r = solve_model(queens_model(8), SolverConfig(mode="all"))
    assert set(r.solutions) == expected
    assert len(r.solutions) == 92


def test_root_failure_returns_zero_backtracks():
    store = Store()
    rt = Runtime(store)
    xs = [store.new_var(make_interval(1, 2)) for _ in range(3)]
    ok = post_alldistinct(rt, xs, Strategy.WEAK_AC)
    assert not ok  # refuted before any labeling


def test_determinism():
    rng = random.Random(2)
    model = random_model(rng)
    a = solve_model(model, SolverConfig(mode="all"))
    b = solve_model(model, SolverConfig(mode="all"))
    assert a.solutions == b.solutions
    assert (a.backtracks, len(a.solutions)) == (b.backtracks, len(b.solutions))


def test_completeness_on_random_models():
    rng = random.Random(21)
    for _ in range(60):
        model = random_model(rng)
        expected = enumerate_solutions(model.to_ground())
        for level in ("fc", "ic", "ac"):
            r = solve_model(model, SolverConfig(level=level, mode="all"))
            assert set(r.solutions) == expected


def test_backtrack_monotonicity_across_levels():
    rng = random.Random(22)
    for _ in range(60):
        model = random_model(rng)
        counts = {}
        for level in ("fc", "ic", "ac"):
            r = solve_model(model, SolverConfig(level=level, mode="first"))
            counts[level] = r.backtracks
        assert counts["ac"] <= counts["ic"] <= counts["fc"]


def test_unlabeled_unbound_variable_is_an_error():
    store = Store()
    rt = Runtime(store)
    x = store.new_var(make_interval(1, 3))
    store.new_var(make_interval(1, 3))  # never labeled, never bound
    with pytest.raises(InvariantError):
        label(rt, [x])


def test_deadline_stops_a_search_without_failures():
    # no attempt fails here, so only the check at each choice point
    # can see the deadline
    store = Store()
    rt = Runtime(store)
    xs = [store.new_var(make_interval(0, 1)) for _ in range(12)]
    stats, sols = label(rt, xs, all_solutions=True, deadline=time.perf_counter())
    assert (stats.limit, stats.backtracks, sols) == ("time limit", 0, [])
    stats, sols = label(rt, xs, all_solutions=True, deadline=time.perf_counter() + 60)
    assert stats.limit is None and len(sols) == 2 ** 12


def test_a_fixpoint_past_the_deadline_unwinds_the_search_to_the_root():
    # b = 0 opens x = y + 1 and y = x + 1, about 300,000 rounds of bounds
    # propagation; b = 1 would be a solution
    store = Store()
    rt = Runtime(store)
    b = store.new_var(make_interval(0, 1))
    x = store.new_var(make_interval(1, 300000))
    y = store.new_var(make_interval(1, 300000))
    for c, terms in ((-1, ((1, x), (-1, y), (1, b))), (-1, ((1, y), (-1, x), (1, b)))):
        assert post_nary(rt, NaryLinear(c, terms), ConsistencyLevel.INTERVAL)
    assert rt.run_to_fixpoint()
    root = domain_snapshot(store)
    activations = rt.activations
    started = time.perf_counter()
    stats, sols = label(rt, [b, x, y], deadline=started + 0.05)
    assert time.perf_counter() - started < 2
    assert (stats.limit, stats.backtracks, sols) == ("time limit", 0, [])
    assert rt.activations - activations < 300000
    assert store.depth() == 0 and not rt.queue
    assert domain_snapshot(store) == root


def test_label_frames_iterate_the_domain_at_frame_creation():
    # y = 1 excludes 1 from x and y = 2 excludes nothing: x's frame on
    # the second branch must offer 1 again, from a domain restored in
    # place, and no frame may offer a value its trial finds gone
    store = Store()
    rt = Runtime(store)
    y = store.new_var(make_interval(1, 2))
    x = store.new_var(make_set([1, 4, 5, 7]))
    assert post_own_diseq(rt, y, {x: (0,)}, "neq(_y)")
    assert post_own_diseq(rt, x, {y: (0,)}, "neq(_x)")
    stats, sols = label(rt, [y, x], all_solutions=True)
    assert stats.backtracks == 0
    assert sols == [(1, 4), (1, 5), (1, 7), (2, 1), (2, 4), (2, 5), (2, 7)]
    # a frame's values read the fields at its making: narrowing x in
    # place leaves them
    var = store.vars[x]
    values = members(var.lo, var.hi, var.bits)
    cp = store.push_choice_point()
    assert store.exclude(x, 4) and store.bind(x, 5)
    assert list(values) == [1, 4, 5, 7]
    store.backtrack_to(cp)


@pytest.mark.parametrize("budget", [0, 1, 10, 23])
def test_backtrack_budget_stops_after_one_more_failure(budget):
    # queens(8) needs 24 failed attempts before its first solution
    r = solve_model(queens_model(8), SolverConfig(max_backtracks=budget))
    assert r.limit == f"more than {budget} backtracks"
    assert r.backtracks == budget + 1 and r.solutions == []
    r = solve_model(queens_model(8), SolverConfig(max_backtracks=24))
    assert r.limit is None and r.backtracks == 24


def test_solver_config_mode_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="some")
