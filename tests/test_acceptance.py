"""Acceptance suite.

One test (or tightly-related pair) per acceptance criterion; each
prints a PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the per-criterion lines).
"""

import random
import time

from conftest import domain_snapshot, random_model, store_snapshot, unmerged_queue

from fdprop.benchmarks import get_benchmark, holed_chain_model, queens_model
from fdprop.domain import make_interval
from fdprop.model import Distinct, SolverConfig, build, fixpoint_violations, solve_model
from fdprop.oracle import enumerate_solutions
from fdprop.runtime import Rule, Runtime
from fdprop.store import BOUND, DOM, INS, Store

from test_benchmarks import zebra_permutation_oracle
from test_search import brute_queens


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {detail}")
    return ok


# -- criterion 1: queens(25) backtrack count -----------------------------------

def test_criterion_1_queens25():
    # CPU time of this thread, as the benchmark harness measures it, so
    # another process on the machine cannot fail the time bound
    started = time.thread_time()
    r = solve_model(queens_model(25), SolverConfig(level="ic", mode="first"))
    elapsed = time.thread_time() - started
    ok_count = r.backtracks == 7255
    ok_time = elapsed < 5.0
    ok_92 = set(solve_model(queens_model(8), SolverConfig(mode="all")).solutions) \
        == brute_queens(8)
    ok = report("1 queens(25)", ok_count and ok_time and ok_92,
                f"backtracks={r.backtracks} (want 7255), "
                f"time={elapsed:.2f}s, queens(8) oracle={'ok' if ok_92 else 'BAD'}")
    assert ok


# -- criterion 2: sendmoney ------------------------------------------------------

def test_criterion_2_sendmoney_solution_and_runtime(sendmoney_oracle_solutions):
    m = get_benchmark("sendmoney")
    started = time.perf_counter()
    r = solve_model(m, SolverConfig(level="ac", mode="first"))
    elapsed = time.perf_counter() - started
    expected = sendmoney_oracle_solutions
    ok = report("2 sendmoney solution", len(expected) == 1
                and set(r.solutions) == expected and elapsed < 1.0,
                f"solutions={r.solutions}, time={elapsed:.2f}s")
    assert ok


def test_criterion_2_sendmoney_backtracks():
    """Table 2 reports 2 backtracks.  A propagator set that reaches the
    defining interval/arc fixpoints (criterion 7) provably makes exactly
    one failing attempt on the standard carry-free formulation, so this
    criterion cannot hold together with criteria 1, 6, and 7; see the
    build notes.  The assertion states the criterion as written."""
    r = solve_model(get_benchmark("sendmoney"), SolverConfig(level="ac"))
    ok = report("2 sendmoney backtracks", r.backtracks == 2,
                f"backtracks={r.backtracks} (published: 2; "
                "full-fixpoint propagation yields 1 on this formulation)")
    assert ok


# -- criterion 3: zebra ----------------------------------------------------------

def test_criterion_3_zebra():
    m = get_benchmark("zebra")
    r = solve_model(m, SolverConfig(level="ac", mode="first"))
    oracle = zebra_permutation_oracle()
    names = [vd.name for vd in m.vars]
    sol = dict(zip(names, r.solutions[0])) if r.solutions else {}
    ok_solution = len(oracle) == 1 and all(sol.get(k) == v
                                           for k, v in oracle[0].items())
    ok_count = r.backtracks == 2
    ok = report("3 zebra", ok_solution and ok_count,
                f"backtracks={r.backtracks} (want 2), solution "
                f"{'matches' if ok_solution else 'DIFFERS FROM'} oracle")
    assert ok


# -- criterion 4: weak-AC showcases ----------------------------------------------

def test_criterion_4_weak_ac_showcases():
    from fdprop.model import Model, VarDecl

    q1 = Model("wac1",
               vars=[VarDecl(n, 1, 2) for n in "xyz"],
               constraints=[Distinct((0, 1, 2))],
               label_order=[0, 1, 2])
    r1 = solve_model(q1, SolverConfig(alldistinct="wac"))
    ok1 = r1.root_failed and r1.backtracks == 0 and len(r1.solutions) == 0

    q2 = Model("wac2",
               vars=[VarDecl("x", 1, 2), VarDecl("y", 1, 2), VarDecl("z", 1, 3)],
               constraints=[Distinct((0, 1, 2))],
               label_order=[0, 1, 2])
    store, rt, ok_post = build(q2, SolverConfig(alldistinct="wac"))
    ok2 = ok_post and rt.run_to_fixpoint() and store.value(2) == 3

    ok = report("4 weak-AC showcases", ok1 and ok2,
                f"query1 root-fails with 0 backtracks: {ok1}; "
                f"query2 binds z=3 at root: {ok2}")
    assert ok


# -- criterion 5: arc beats interval ----------------------------------------------

def test_criterion_5_ac_beats_ic():
    gaps = []
    strict = True
    for k in (1, 3, 6):
        m = holed_chain_model(k)
        b_ac = solve_model(m, SolverConfig(level="ac")).backtracks
        b_ic = solve_model(m, SolverConfig(level="ic")).backtracks
        gaps.append((k, b_ac, b_ic))
        strict = strict and b_ac < b_ic
    alpha = get_benchmark("alpha")
    a_ac = solve_model(alpha, SolverConfig(level="ac")).backtracks
    a_ic = solve_model(alpha, SolverConfig(level="ic")).backtracks
    ok_alpha = (a_ac, a_ic) == (4605, 8440)
    ok = report("5 ac<ic", strict and ok_alpha,
                f"holed_chain (k, ac, ic)={gaps}; alpha ac={a_ac} ic={a_ic} "
                "(published 4605/8440)")
    assert ok


# -- criteria 6 and 7: the 500-model randomized suites ------------------------------

CONFIGS = [(lvl, ad) for lvl in ("fc", "ic", "ac")
           for ad in ("naive", "linear", "wac")]


def _suite_models():
    rng = random.Random(0xFD500)
    return [random_model(rng) for _ in range(500)]


def test_criterion_6_oracle_equivalence_500_models():
    started = time.perf_counter()
    mismatches = 0
    for model in _suite_models():
        expected = enumerate_solutions(model.to_ground())
        for level, ad in CONFIGS:
            r = solve_model(model, SolverConfig(level=level, alldistinct=ad,
                                                mode="all"))
            if set(r.solutions) != expected:
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = report("6 oracle equivalence", mismatches == 0 and elapsed < 60.0,
                f"500 models x {len(CONFIGS)} configs, mismatches={mismatches}, "
                f"time={elapsed:.1f}s")
    assert ok


def test_criterion_7_fixpoint_definitions_500_models():
    violations = 0
    for model in _suite_models():
        for level, ad in CONFIGS:
            config = SolverConfig(level=level, alldistinct=ad)
            store, rt, ok = build(model, config)
            if ok:
                ok = rt.run_to_fixpoint()
            if not ok:
                continue
            domains = [list(store.domain(i).values())
                       for i in range(len(model.vars))]
            failed = fixpoint_violations(model, domains, config)
            violations += sum(map(len, failed.values()))
    ok = report("7 fixpoint definitions", violations == 0,
                f"violations={violations} across 500 models x {len(CONFIGS)} configs")
    assert ok


# -- criterion 8: runtime semantics under randomized workloads ------------------------

def _erasure_run(rng):
    store = Store()
    rt = Runtime(store)
    x = store.new_var(make_interval(1, 20))
    woken = []
    kinds = {"ins": (INS, x), "bound": (BOUND, x), "dom": (DOM, x)}
    kind_name = rng.choice(list(kinds))
    for _ in range(rng.randint(1, 4)):
        if kind_name == "ins":
            store.bind(x, rng.randint(1, 20))
        elif kind_name == "bound":
            store.intersect(x, store.domain(x).lo + 1, store.domain(x).hi)
        else:
            d = store.domain(x)
            if d.count > 2:
                store.exclude(x, (d.lo + d.hi) // 2)
        rt.run_to_fixpoint()
    rt.spawn([Rule(None, (kinds[kind_name],),
                   lambda e: (woken.append(1), True)[1])])
    rt.run_to_fixpoint()
    return woken == []  # fully-processed events never wake a later spawn


def _merge_run(rng):
    model = random_model(rng)

    def outcome():
        r = solve_model(model, SolverConfig(mode="all"))
        return sorted(r.solutions), r.backtracks, r.root_failed

    merged = outcome()
    with unmerged_queue():
        return outcome() == merged


def _multi_dom_run(rng):
    store = Store()
    rt = Runtime(store)
    x = store.new_var(make_interval(1, 12))
    trigger = store.new_var(make_interval(0, 1))
    payloads = []
    rt.spawn([Rule(None, ((DOM, x),), lambda e: (payloads.append(e.value), True)[1])])
    removed = rng.sample(range(3, 11), rng.randint(2, 4))

    def poke(e):
        for v in removed:
            if not store.exclude(x, v):
                return False
        return True

    rt.spawn([Rule(None, ((INS, trigger),), poke)])
    store.bind(trigger, 0)
    ok = rt.run_to_fixpoint()
    return ok and payloads == removed  # one activation per distinct dom event


def _trail_run(rng):
    model = random_model(rng)
    store, rt, ok = build(model, SolverConfig())
    if ok:
        ok = rt.run_to_fixpoint()
    if not ok:
        return True
    unbound = [i for i in range(len(model.vars)) if store.value(i) is None]
    if not unbound:
        return True
    snap = (store_snapshot(store),
            tuple((a.id, a.rule) for a in rt.agents))
    cp = rt.push_choice_point()
    x = rng.choice(unbound)
    store.bind(x, rng.choice(list(store.domain(x).values())))
    rt.run_to_fixpoint()
    rt.backtrack_to(cp)
    after = (store_snapshot(store),
             tuple((a.id, a.rule) for a in rt.agents))
    return snap == after


def _scheduling_run(rng):
    model = random_model(rng)
    outcomes = []
    for policy, seed in (("fifo", None), ("lifo", None),
                         ("random", rng.randint(0, 10 ** 6))):
        store, rt, ok = build(model, SolverConfig(),
                              queue_policy=policy, queue_seed=seed)
        if ok:
            ok = rt.run_to_fixpoint()
        outcomes.append((ok, domain_snapshot(store) if ok else None))
    return outcomes[0] == outcomes[1] == outcomes[2]


def test_criterion_8_runtime_semantics_1000_runs():
    rng = random.Random(0xCAFE)
    checks = {
        "event erasure": (_erasure_run, 200),
        "merging soundness": (_merge_run, 200),
        "multi-dom activation": (_multi_dom_run, 200),
        "trail round-trip": (_trail_run, 200),
        "scheduling invariance": (_scheduling_run, 200),
    }
    failures = {}
    total = 0
    for name, (fn, runs) in checks.items():
        bad = sum(0 if fn(rng) else 1 for _ in range(runs))
        total += runs
        if bad:
            failures[name] = bad
    ok = report("8 runtime semantics", not failures,
                f"{total} randomized runs, failures={failures or 'none'}")
    assert ok
