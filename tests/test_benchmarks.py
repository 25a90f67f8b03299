import itertools
from importlib import resources

import pytest

from conftest import unmerged_queue

from fdprop.benchmarks import (
    MAX_QUEENS_RECORDS,
    get_benchmark,
    holed_chain_model,
    magic_model,
    queens_model,
)
from fdprop.domain import DEFAULT_MAX_WIDTH
from fdprop.linear import Diseq
from fdprop.model import SolverConfig, build, parse_model, solve_model
from fdprop.oracle import enumerate_solutions
from fdprop.runtime import END
from fdprop.search import label


def test_queens_structure():
    m = queens_model(4)
    assert len(m.vars) == 4
    diseqs = [c for c in m.constraints if isinstance(c, Diseq)]
    assert len(diseqs) == 18  # three per pair, six pairs


@pytest.mark.parametrize("n", [8, 25])
def test_queens_posts_one_agent_per_column(n):
    # every disequality on a column shares the column's one agent
    store, rt, ok = build(queens_model(n), SolverConfig())
    assert ok
    assert [a.name for a in rt.agents] == [f"neq(_{i})" for i in range(n)]


def test_queens_walks_no_ended_agent():
    # an agent ends only when its column is bound, and its column posts
    # no further ins before a backtrack puts the agent back to sleep
    store, rt, ok = build(queens_model(8), SolverConfig())
    take = rt._take
    walked = []

    def counting_take():
        record = take()
        _, watchers, n = record
        walked.extend(agent.rule for agent in watchers[:n])
        return record

    rt._take = counting_take
    assert ok and rt.run_to_fixpoint()
    _, solutions = label(rt, list(range(8)), all_solutions=True)
    assert len(solutions) == 92
    assert len(walked) == rt.walked > 0 and END not in walked


@pytest.mark.parametrize("name", ["magic(4)", "eq10"])
def test_ac_sums_spawn_no_agent_during_search(name, monkeypatch):
    # each n-ary sum collapses inside its own hybrid agent
    model = get_benchmark(name)
    store, rt, ok = build(model, SolverConfig(level="ac"))
    agents = len(rt.agents)
    assert ok and rt.run_to_fixpoint()
    spawned = []
    monkeypatch.setattr(type(rt), "spawn", lambda *args, **kwargs: spawned.append(args))
    _, solutions = label(rt, model.label_order)
    assert len(solutions) == 1 and spawned == []
    assert len(rt.agents) == agents


def test_queens_unknown_and_bad_args():
    with pytest.raises(KeyError):
        get_benchmark("mystery")
    with pytest.raises(ValueError):
        queens_model(0)


def test_generator_sizes_over_cap_are_refused():
    # queens first: the cheapest to build where a cap is missing
    with pytest.raises(ValueError):
        queens_model(448)  # 300,384 records, just over MAX_QUEENS_RECORDS
    assert len(queens_model(447).constraints) <= MAX_QUEENS_RECORDS
    with pytest.raises(ValueError):
        holed_chain_model(DEFAULT_MAX_WIDTH - 2)
    holed_chain_model(DEFAULT_MAX_WIDTH - 3)  # the widest domain accepted
    with pytest.raises(ValueError):
        magic_model(1025)


def test_sendmoney_unique_solution_matches_oracle(sendmoney_oracle_solutions):
    m = get_benchmark("sendmoney")
    r = solve_model(m, SolverConfig(level="ac", mode="all"))
    expected = sendmoney_oracle_solutions
    assert set(r.solutions) == expected
    assert len(expected) == 1
    names = [vd.name for vd in m.vars]
    sol = dict(zip(names, next(iter(expected))))
    send = 1000 * sol["s"] + 100 * sol["e"] + 10 * sol["n"] + sol["d"]
    more = 1000 * sol["m"] + 100 * sol["o"] + 10 * sol["r"] + sol["e"]
    money = (10000 * sol["m"] + 1000 * sol["o"] + 100 * sol["n"]
             + 10 * sol["e"] + sol["y"])
    assert send + more == money == 10652


ZEBRA_GROUPS = {
    "nat": ("english", "spaniard", "ukrainian", "norwegian", "japanese"),
    "col": ("red", "green", "ivory", "yellow", "blue"),
    "pet": ("dog", "snails", "fox", "horse", "zebra"),
    "drink": ("coffee", "tea", "milk", "oj", "water"),
    "smoke": ("oldgold", "kools", "chesterfield", "luckystrike", "parliament"),
}


def zebra_permutation_oracle():
    """All zebra solutions by factored permutation enumeration with
    early checks; independent of the propagation engine."""
    sols = []
    perms = list(itertools.permutations(range(1, 6)))
    for col in perms:
        red, green, ivory, yellow, blue = col
        if green != ivory + 1:
            continue
        for nat in perms:
            english, spaniard, ukrainian, norwegian, japanese = nat
            if norwegian != 1 or english != red or abs(norwegian - blue) != 1:
                continue
            for drink in perms:
                coffee, tea, milk, oj, water = drink
                if milk != 3 or coffee != green or ukrainian != tea:
                    continue
                for smoke in perms:
                    oldgold, kools, chesterfield, luckystrike, parliament = smoke
                    if kools != yellow or luckystrike != oj or japanese != parliament:
                        continue
                    for pet in perms:
                        dog, snails, fox, horse, zebra = pet
                        if (spaniard != dog or oldgold != snails
                                or abs(chesterfield - fox) != 1
                                or abs(kools - horse) != 1):
                            continue
                        sols.append(dict(zip(
                            ZEBRA_GROUPS["col"] + ZEBRA_GROUPS["nat"]
                            + ZEBRA_GROUPS["drink"] + ZEBRA_GROUPS["smoke"]
                            + ZEBRA_GROUPS["pet"],
                            col + nat + drink + smoke + pet)))
    return sols


def test_zebra_matches_permutation_oracle():
    oracle = zebra_permutation_oracle()
    assert len(oracle) == 1
    m = get_benchmark("zebra")
    r = solve_model(m, SolverConfig(level="ac"))
    assert len(r.solutions) == 1
    names = [vd.name for vd in m.vars]
    sol = dict(zip(names, r.solutions[0]))
    for key, value in oracle[0].items():
        assert sol[key] == value, key
    assert sol["japanese"] == sol["zebra"]
    assert sol["norwegian"] == sol["water"]


def test_alpha_solution_satisfies_every_word_sum():
    m = get_benchmark("alpha")
    r = solve_model(m, SolverConfig(level="ac"))
    assert len(r.solutions) == 1
    values = r.solutions[0]
    assert sorted(values) == sorted(set(values))  # all distinct
    for con in m.constraints:
        if hasattr(con, "terms"):
            assert con.c + sum(a * values[x] for a, x in con.terms) == 0


def test_alpha_has_two_total_solutions():
    # d and x appear in no word; they swap the two leftover values
    m = get_benchmark("alpha")
    r = solve_model(m, SolverConfig(level="ac", mode="all"))
    assert len(r.solutions) == 2


def test_eq_systems_unique_solutions():
    for name in ("eq10", "eq20"):
        m = get_benchmark(name)
        r = solve_model(m, SolverConfig(level="ic", mode="all"))
        assert len(r.solutions) == 1
        values = r.solutions[0]
        for con in m.constraints:
            assert con.c + sum(a * values[x] for a, x in con.terms) == 0


def magic_permutation_oracle(n):
    total = n * (n * n + 1) // 2
    sols = set()
    for perm in itertools.permutations(range(1, n * n + 1)):
        rows = [perm[r * n:(r + 1) * n] for r in range(n)]
        if any(sum(row) != total for row in rows):
            continue
        if any(sum(rows[r][c] for r in range(n)) != total for c in range(n)):
            continue
        if sum(rows[i][i] for i in range(n)) != total:
            continue
        if sum(rows[i][n - 1 - i] for i in range(n)) != total:
            continue
        sols.add(perm)
    return sols


def test_magic3_all_solutions_match_oracle():
    expected = magic_permutation_oracle(3)
    assert len(expected) == 8  # the rotations and reflections of one square
    r = solve_model(magic_model(3), SolverConfig(mode="all"))
    assert set(r.solutions) == expected


def test_magic_files_equal_generator():
    for n in (3, 4):
        path = resources.files("fdprop").joinpath("models", f"magic{n}.model")
        parsed = parse_model(path.read_text(encoding="utf-8"), f"magic({n})")
        generated = magic_model(n)
        assert parsed.vars == generated.vars
        assert parsed.constraints == list(generated.constraints)
        assert parsed.label_order == list(generated.label_order)


def test_holed_chain_unique_solution():
    for k in (1, 3):
        m = holed_chain_model(k)
        expected = enumerate_solutions(m.to_ground())
        r = solve_model(m, SolverConfig(mode="all"))
        assert set(r.solutions) == expected
        ys = {sol[0] for sol in expected}
        assert ys == {k + 3}


def test_no_coalesce_identical_across_full_corpus():
    from fdprop.benchmarks import BENCH_CORPUS

    for name in BENCH_CORPUS:
        m = get_benchmark(name)
        merged = solve_model(m, SolverConfig())
        with unmerged_queue():
            reference = solve_model(m, SolverConfig())
        assert merged.solutions == reference.solutions, name
        assert merged.backtracks == reference.backtracks, name

