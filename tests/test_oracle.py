import itertools

import pytest

from fdprop.linear import BinaryLinear, Diseq, NaryLinear
from fdprop.model import Distinct, Model, SolverConfig, VarDecl, fixpoint_violations
from fdprop.oracle import (
    CapExceeded,
    GroundModel,
    check_arc_consistent,
    check_interval_consistent,
    check_weak_arc_consistent,
    enumerate_solutions,
)


def test_enumerate_diseq():
    gm = GroundModel([[1, 2], [1, 2]], [((0, 1), lambda x, y: x != y)])
    assert enumerate_solutions(gm) == {(1, 2), (2, 1)}


def test_enumerate_pigeonhole_empty():
    doms = [[1, 2]] * 3
    cons = [((i, j), lambda a, b: a != b)
            for i in range(3) for j in range(i + 1, 3)]
    assert enumerate_solutions(GroundModel(doms, cons)) == set()


def test_enumerate_offset_equality():
    gm = GroundModel([[1, 2, 3], [1, 2, 3]], [((0, 1), lambda x, y: x == y + 1)])
    assert enumerate_solutions(gm) == {(2, 1), (3, 2)}


def test_enumerate_cap_refusal():
    gm = GroundModel([list(range(1000))] * 3, [])
    with pytest.raises(CapExceeded):
        enumerate_solutions(gm, cap=10 ** 6)


def test_cap_refusal_stops_counting_past_the_cap():
    """1,500 domains of 1,000 values: a count of 4,501 digits, past
    what Python formats, is refused with the cap alone; an empty domain
    makes the count 0 however many values the others hold."""
    wide = [list(range(1000))] * 1500
    with pytest.raises(CapExceeded, match=r"^more than 1000000 assignments$"):
        enumerate_solutions(GroundModel(wide), cap=10 ** 6)
    assert enumerate_solutions(GroundModel([[]] + [list(range(1000))] * 3), cap=10) == set()


def test_interval_consistency_worked_example():
    # x = y + 1 as 1 + (-1)x + 1y = 0
    assert check_interval_consistent(1, [-1, 1], [range(2, 6), range(1, 5)])
    assert not check_interval_consistent(1, [-1, 1], [range(1, 6), range(1, 6)])
    assert check_interval_consistent(1, [-1, 1], [[4], [3]])  # bound, satisfied


def test_interval_consistency_matches_enumeration_on_tiny_instances():
    import math
    from fractions import Fraction

    cases = [
        (0, [2, -1], [range(0, 4), range(0, 7)]),
        (-3, [1, 1, 1], [range(0, 3), range(1, 3), range(0, 2)]),
        (2, [-2, 3], [range(-2, 3), range(-1, 4)]),
    ]
    for c, coeffs, domains in cases:
        domains = [list(d) for d in domains]
        expected = True
        for i, dom_i in enumerate(domains):
            others = [domains[k] for k in range(len(domains)) if k != i]
            residuals = []
            for combo in itertools.product(*others):
                total = c
                pos = 0
                for k in range(len(domains)):
                    if k == i:
                        continue
                    total += coeffs[k] * combo[pos]
                    pos += 1
                residuals.append(Fraction(-total, coeffs[i]))
            lo = math.ceil(min(residuals))
            hi = math.floor(max(residuals))
            if not all(lo <= v <= hi for v in dom_i):
                expected = False
        assert check_interval_consistent(c, coeffs, domains) == expected


def test_arc_consistency_examples():
    pred = lambda x, y: x == y + 1
    assert not check_arc_consistent(pred, [2, 4, 5], range(1, 5))
    assert check_arc_consistent(pred, [2, 4, 5], [1, 3, 4])
    assert not check_arc_consistent(lambda x, y: False, [1], [1])


def test_arc_consistent_values_all_have_solutions():
    pred = lambda x, y: x == 2 * y
    dx, dy = [2, 4, 6], [1, 2, 3]
    assert check_arc_consistent(pred, dx, dy)
    sols = enumerate_solutions(GroundModel([dx, dy], [((0, 1), pred)]))
    assert {x for x, _ in sols} == set(dx)
    assert {y for _, y in sols} == set(dy)


def test_weak_arc_consistency_examples():
    assert not check_weak_arc_consistent([{1, 2}, {1, 2}, {1, 2}])
    assert check_weak_arc_consistent([{1, 2}, {1, 2}, {3}])
    assert check_weak_arc_consistent([{5}])


_HAND_DOMAINS = [[1, 2, 3, 4, 5], [1, 2], [1, 2], [1, 2, 3], [1, 3],
                 [1, 2, 3], [1, 3], [1], [1, 2]]


def _hand_model():
    """One constraint per defining predicate, each failing only that
    predicate on _HAND_DOMAINS."""
    names = "x y z u w p q s t".split()
    return Model("hand", vars=[VarDecl(n, d[0], d[-1])
                               for n, d in zip(names, _HAND_DOMAINS)], constraints=[
        NaryLinear(-6, ((1, 0), (1, 1), (1, 2))),  # x = 5 exceeds 6 - 1 - 1
        BinaryLinear(1, 3, 1, 4, 0),               # u = 2 has no w
        NaryLinear(-5, ((1, 5), (1, 6), (1, 7))),  # s = 1: p + q = 4, p = 2 has no q
        Distinct((1, 2, 8)),                       # three domains within {1, 2}
        Diseq(0, 1, 0),                            # no defining predicate
    ], label_order=list(range(len(names))))


@pytest.mark.parametrize("level, alldistinct, expected", [
    ("ac", "wac", {"interval": [0], "arc": [1, 2], "weak arc": [3]}),
    ("ac", "linear", {"interval": [0], "arc": [1, 2]}),
    ("ic", "naive", {"interval": [0]}),
    ("fc", "wac", {"weak arc": [3]}),
    ("fc", "linear", {}),
])
def test_fixpoint_violations_name_each_failing_constraint(level, alldistinct, expected):
    config = SolverConfig(level=level, alldistinct=alldistinct)
    failed = fixpoint_violations(_hand_model(), _HAND_DOMAINS, config)
    assert failed == expected and list(failed) == list(expected)
