import itertools
from importlib import resources

import pytest

from fdprop.benchmarks import (
    get_benchmark,
    holed_chain_model,
    magic_model,
    queens_model,
)
from fdprop.linear import Diseq
from fdprop.model import SolverConfig, parse_model, solve_model
from fdprop.oracle import enumerate_solutions


def test_queens_structure():
    m = queens_model(4)
    assert len(m.vars) == 4
    diseqs = [c for c in m.constraints if isinstance(c, Diseq)]
    assert len(diseqs) == 18  # three per pair, six pairs


def test_queens_unknown_and_bad_args():
    with pytest.raises(KeyError):
        get_benchmark("mystery")
    with pytest.raises(ValueError):
        queens_model(0)


def test_sendmoney_unique_solution_matches_oracle():
    m = get_benchmark("sendmoney")
    r = solve_model(m, SolverConfig(level="ac", mode="all"))
    expected = enumerate_solutions(m.to_ground(cap=10 ** 8))
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
    assert r.stats.solutions == 1
    names = [vd.name for vd in m.vars]
    sol = dict(zip(names, r.solutions[0]))
    for key, value in oracle[0].items():
        assert sol[key] == value, key
    assert sol["japanese"] == sol["zebra"]
    assert sol["norwegian"] == sol["water"]


def test_alpha_solution_satisfies_every_word_sum():
    m = get_benchmark("alpha")
    r = solve_model(m, SolverConfig(level="ac"))
    assert r.stats.solutions == 1
    values = r.solutions[0]
    assert sorted(values) == sorted(set(values))  # all distinct
    for con in m.constraints:
        if hasattr(con, "terms"):
            assert con.c + sum(a * values[x] for a, x in con.terms) == 0


def test_alpha_has_two_total_solutions():
    # d and x appear in no word; they swap the two leftover values
    m = get_benchmark("alpha")
    r = solve_model(m, SolverConfig(level="ac", mode="all"))
    assert r.stats.solutions == 2


def test_eq_systems_unique_solutions():
    for name in ("eq10", "eq20"):
        m = get_benchmark(name)
        r = solve_model(m, SolverConfig(level="ic", mode="all"))
        assert r.stats.solutions == 1
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
        with_c = solve_model(m, SolverConfig())
        without = solve_model(m, SolverConfig(coalesce=False))
        assert with_c.solutions == without.solutions, name
        assert with_c.stats.backtracks == without.stats.backtracks, name


GOLDEN_COUNTS = [
    # (benchmark, level, alldistinct, backtracks, activations, solutions)
    ("alpha", "ac", "linear", 4605, 124398, 1),
    ("eq10", "ac", "linear", 61, 741, 1),
    ("eq20", "ac", "linear", 9, 372, 1),
    ("magic(3)", "ac", "linear", 2, 149, 1),
    ("magic(4)", "ac", "linear", 18, 862, 1),
    ("sendmoney", "ac", "linear", 1, 32, 1),
    ("zebra", "ac", "linear", 2, 248, 1),
    ("queens(12)", "ac", "linear", 54, 1914, 1),
    ("magic(4)", "ic", "wac", 7, 625, 1),
    ("zebra", "ac", "wac", 2, 363, 1),
]


@pytest.mark.parametrize("name,level,alldistinct,backtracks,activations,solutions",
                         GOLDEN_COUNTS)
def test_golden_counts(name, level, alldistinct, backtracks, activations, solutions):
    """First solution, fifo, coalescing: the dispatch layer must not
    change how often propagators run."""
    r = solve_model(get_benchmark(name),
                    SolverConfig(level=level, alldistinct=alldistinct))
    stats = r.stats
    assert (stats.backtracks, stats.activations, stats.solutions) == \
        (backtracks, activations, solutions)
