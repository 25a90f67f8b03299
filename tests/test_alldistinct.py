import random

from conftest import domain_values, random_model

from fdprop.alldistinct import (
    AllDistinctPosting,
    Strategy,
    outof_reducer,
    post_alldistinct,
)
from fdprop.domain import make_interval, make_set
from fdprop.model import Distinct, SolverConfig, build, solve_model
from fdprop.oracle import check_weak_arc_consistent
from fdprop.runtime import END, Runtime
from fdprop.store import Store


def fresh(domains):
    store = Store()
    rt = Runtime(store)
    xs = [store.new_var(d) for d in domains]
    return store, rt, xs


def test_linear_space_excludes_on_binding():
    store, rt, xs = fresh([make_interval(1, 5)] * 3)
    assert post_alldistinct(rt, AllDistinctPosting(tuple(xs), Strategy.LINEAR_SPACE))
    assert store.bind(xs[1], 2) and rt.run_to_fixpoint()
    assert domain_values(store, xs[0]) == (1, 3, 4, 5)
    assert domain_values(store, xs[2]) == (1, 3, 4, 5)


def test_agent_counts_per_strategy():
    for strategy, expect in ((Strategy.NAIVE_PAIRWISE, 6),
                             (Strategy.LINEAR_SPACE, 4),
                             (Strategy.WEAK_AC, 8)):
        store, rt, xs = fresh([make_interval(1, 9)] * 4)
        assert post_alldistinct(rt, AllDistinctPosting(tuple(xs), strategy))
        live = [a for a in rt.agents if a.rule != END]
        assert len(live) == expect, strategy


def test_duplicate_variable_is_inconsistent():
    for strategy in Strategy:
        store, rt, xs = fresh([make_interval(1, 9)] * 2)
        assert not post_alldistinct(
            rt, AllDistinctPosting((xs[0], xs[1], xs[0]), strategy))


def test_outof_reducer_pigeonhole_failure():
    store, rt, xs = fresh([make_interval(1, 2)] * 3)
    assert not outof_reducer(store, xs[0], [], xs[1:])


def test_outof_reducer_exact_fill_excludes():
    store, rt, xs = fresh([make_interval(1, 2), make_interval(1, 2),
                           make_interval(1, 3)])
    assert outof_reducer(store, xs[0], [], xs[1:])
    assert rt.run_to_fixpoint()
    assert store.value(xs[2]) == 3


def test_outof_reducer_disjoint_noop():
    store, rt, xs = fresh([make_interval(1, 3), make_set([4, 5]),
                           make_set([6, 7])])
    assert outof_reducer(store, xs[0], [], xs[1:])
    assert domain_values(store, xs[1]) == (4, 5)
    assert domain_values(store, xs[2]) == (6, 7)


def test_weak_ac_root_failure_without_labeling():
    store, rt, xs = fresh([make_interval(1, 2)] * 3)
    assert not post_alldistinct(rt, AllDistinctPosting(tuple(xs), Strategy.WEAK_AC))


def test_weak_ac_assigns_without_labeling():
    store, rt, xs = fresh([make_interval(1, 2), make_interval(1, 2),
                           make_interval(1, 3)])
    assert post_alldistinct(rt, AllDistinctPosting(tuple(xs), Strategy.WEAK_AC))
    assert rt.run_to_fixpoint()
    assert store.value(xs[2]) == 3


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


def test_linear_equals_naive_pruning():
    rng = random.Random(8)
    for model in _distinct_models(rng, 80):
        assert _root_domains(model, "linear") == _root_domains(model, "naive")


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
    for model in _distinct_models(rng, 80):
        store, rt, ok = build(model, SolverConfig(alldistinct="wac"))
        if ok:
            ok = rt.run_to_fixpoint()
        if not ok:
            continue
        for con in model.constraints:
            if isinstance(con, Distinct):
                doms = [set(store.domain(x).values()) for x in con.vars]
                assert check_weak_arc_consistent(doms)


def test_solution_sets_match_brute_force_all_strategies():
    rng = random.Random(12)
    for model in _distinct_models(rng, 25):
        ground = model.to_ground()
        from fdprop.oracle import enumerate_solutions
        expected = enumerate_solutions(ground)
        for strategy in ("naive", "linear", "wac"):
            r = solve_model(model, SolverConfig(alldistinct=strategy, mode="all"))
            assert set(r.solutions) == expected, (model, strategy)
