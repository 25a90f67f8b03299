import random

import pytest

from fdprop.domain import (
    DeltaKind,
    DomainError,
    exclude_value,
    intersect_range,
    is_subset_of,
    make_interval,
    make_set,
)


def test_make_interval_basic():
    d = make_interval(1, 5)
    assert (d.lo, d.hi, d.count) == (1, 5, 5)
    assert d.is_interval()
    assert list(d.values()) == [1, 2, 3, 4, 5]


def test_make_interval_singleton():
    d = make_interval(3, 3)
    assert d.count == 1 and d.lo == 3


def test_make_interval_negative_bounds():
    d = make_interval(-4, 4)
    assert d.count == 9
    assert d.contains(-4) and d.contains(0) and d.contains(4)


def test_make_interval_errors():
    with pytest.raises(DomainError):
        make_interval(5, 1)
    with pytest.raises(DomainError):
        make_interval(0, 1 << 21)


def test_make_set_with_hole():
    d = make_set([2, 4, 5])
    assert (d.lo, d.hi, d.count) == (2, 5, 3)
    assert not d.contains(3)
    assert not d.is_interval()


def test_make_set_normalizes_contiguous():
    d = make_set([1, 2, 3])
    assert d.is_interval() and (d.lo, d.hi, d.count) == (1, 3, 3)


def test_make_set_singleton_and_errors():
    assert make_set([7]).count == 1
    with pytest.raises(DomainError):
        make_set([])


def test_exclude_inner():
    d, delta = exclude_value(make_interval(1, 5), 3)
    assert delta.kind is DeltaKind.INNER_EXCLUDED and 3 not in d
    assert list(d.values()) == [1, 2, 4, 5]


def test_exclude_bound():
    d, delta = exclude_value(make_interval(1, 5), 1)
    assert delta.kind is DeltaKind.BOUND_CHANGED
    assert d.is_interval() and (d.lo, d.hi) == (2, 5)


def test_exclude_bound_retightens_past_holes():
    d, delta = exclude_value(make_set([2, 5, 6]), 2)
    assert delta.kind is DeltaKind.BOUND_CHANGED
    assert (d.lo, d.hi, d.count) == (5, 6, 2)
    assert d.is_interval()  # survivors are contiguous


def test_exclude_to_empty_and_nonmember():
    d, delta = exclude_value(make_interval(3, 3), 3)
    assert delta.kind is DeltaKind.EMPTIED and d.count == 0
    d0 = make_interval(1, 5)
    d, delta = exclude_value(d0, 9)
    assert delta.kind is DeltaKind.UNCHANGED and d is d0


def test_exclude_to_singleton_instantiates():
    d, delta = exclude_value(make_set([2, 4]), 2)
    assert delta.kind is DeltaKind.INSTANTIATED and d.lo == 4
    assert d.count == 1


def test_intersect_range_cases():
    d, delta = intersect_range(make_interval(1, 5), 2, 9)
    assert delta.kind is DeltaKind.BOUND_CHANGED and (d.lo, d.hi) == (2, 5)
    d, delta = intersect_range(make_interval(1, 5), -10, 4)
    assert delta.kind is DeltaKind.BOUND_CHANGED and (d.lo, d.hi) == (1, 4)
    d, delta = intersect_range(make_set([2, 4, 5]), 3, 10)
    assert delta.kind is DeltaKind.BOUND_CHANGED
    assert list(d.values()) == [4, 5]  # frozen from the set-filter oracle
    d, delta = intersect_range(make_interval(1, 5), 6, 9)
    assert delta.kind is DeltaKind.EMPTIED
    d0 = make_interval(1, 5)
    d, delta = intersect_range(d0, 1, 5)
    assert delta.kind is DeltaKind.UNCHANGED and d is d0


def test_subset_shortcuts():
    assert is_subset_of(make_set([1, 2]), make_interval(1, 3))
    assert not is_subset_of(make_interval(1, 4), make_interval(2, 9))
    # within d2's bounds and not larger: the bit test decides
    assert is_subset_of(make_set([1, 2, 5]), make_set([1, 2, 4, 5]))
    assert not is_subset_of(make_set([1, 3]), make_set([1, 2, 4, 5]))


def _ref_apply(values: set, op, *args) -> set:
    if op == "exclude":
        return values - {args[0]}
    lo, hi = args
    return {v for v in values if lo <= v <= hi}


def test_randomized_against_reference_sets():
    rng = random.Random(20260808)
    for _ in range(400):
        if rng.random() < 0.5:
            lo = rng.randint(-20, 20)
            d = make_interval(lo, lo + rng.randint(0, 15))
        else:
            base = rng.randint(-20, 20)
            d = make_set(rng.sample(range(base, base + 24), rng.randint(1, 12)))
        ref = set(d.values())
        for _ in range(12):
            if d.count == 0:
                break
            if rng.random() < 0.6:
                v = rng.randint(d.lo - 2, d.hi + 2)
                d, delta = exclude_value(d, v)
                ref = _ref_apply(ref, "exclude", v)
            else:
                lo = rng.randint(d.lo - 3, d.hi + 1)
                hi = lo + rng.randint(0, 12)
                d, delta = intersect_range(d, lo, hi)
                ref = _ref_apply(ref, "range", lo, hi)
                assert delta.kind is not DeltaKind.INNER_EXCLUDED
            assert set(d.values()) == ref
            assert d.count == len(ref)
            if ref:
                assert d.lo == min(ref) and d.hi == max(ref)
                # normalization: a bit vector exists iff there is a hole
                assert (d.bits is not None) == (d.count < d.hi - d.lo + 1)
                if d.bits is not None:
                    # bit i stands for lo + i
                    assert d.bits & 1
                    assert d.bits.bit_length() == d.hi - d.lo + 1


def test_subset_matches_naive_scan():
    rng = random.Random(99)
    for _ in range(500):
        def mk():
            base = rng.randint(-8, 8)
            vals = rng.sample(range(base, base + 14), rng.randint(1, 9))
            return make_set(vals)
        d1, d2 = mk(), mk()
        expected = set(d1.values()) <= set(d2.values())
        assert is_subset_of(d1, d2) == expected
