import random

import pytest

from conftest import random_domain, store_snapshot

from fdprop.domain import DeltaKind, make_interval, make_set, members
from fdprop.store import (
    BOUND,
    DOM,
    INS,
    InvariantError,
    Store,
)


def recording_store():
    events = []
    store = Store(event_sink=lambda kind, var, value: events.append((kind, var, value)))
    return store, events


def test_new_var_basics():
    store = Store()
    x = store.new_var(make_interval(1, 5))
    y = store.new_var(make_interval(1, 5))
    assert x != y
    assert store.value(x) is None


def test_new_var_singleton_autobinds_silently():
    store, events = recording_store()
    x = store.new_var(make_interval(7, 7))
    assert store.value(x) == 7
    assert events == []


def test_tighten_event_mapping():
    store, events = recording_store()
    x = store.new_var(make_interval(1, 5))
    assert store.exclude(x, 3)
    assert events == [(DOM, x, 3)]

    events.clear()
    y = store.new_var(make_set([2, 3]))
    assert store.exclude(y, 3)
    assert events == [(INS, y, None)]  # no bound event on instantiation
    assert store.value(y) == 2

    events.clear()
    z = store.new_var(make_interval(1, 5))
    assert store.intersect(z, 2, 9)
    assert events == [(BOUND, z, None)]

    events.clear()
    w = store.new_var(make_interval(4, 4))
    assert not store.exclude(w, 4)


def test_bind_posts_ins_and_sets_value():
    store, events = recording_store()
    x = store.new_var(make_interval(1, 5))
    assert store.bind(x, 3)
    assert store.value(x) == 3
    assert events == [(INS, x, None)]
    assert store.bind(x, 3)
    assert not store.bind(x, 4)


@pytest.mark.parametrize("narrow", [
    lambda store, x: store.exclude(x, 9),         # above the bounds
    lambda store, x: store.exclude(x, -1),        # below the bounds
    lambda store, x: store.exclude(x, 3),         # in a hole
    lambda store, x: store.intersect(x, 1, 6),    # covers the domain exactly
    lambda store, x: store.intersect(x, -4, 20),  # covers the domain with room
], ids=["above", "below", "hole", "exact-range", "wide-range"])
def test_noop_narrowing_posts_nothing_and_trails_nothing(narrow):
    store, events = recording_store()
    x = store.new_var(make_set([1, 2, 4, 6]))
    store.push_choice_point()  # a real change would add a trail entry here
    domain = store.domain(x)
    trail_len = len(store._trail)
    assert narrow(store, x)
    assert events == []
    assert len(store._trail) == trail_len
    assert store.vars[x].domain is domain


def test_trail_round_trip_single():
    store = Store()
    x = store.new_var(make_interval(1, 5))
    before = store_snapshot(store)
    cp = store.push_choice_point()
    store.exclude(x, 3)
    store.intersect(x, 2, 5)
    assert store_snapshot(store) != before
    store.backtrack_to(cp)
    assert store_snapshot(store) == before


def test_one_trail_entry_per_variable_per_choice_point():
    store = Store()
    x = store.new_var(make_interval(1, 20))
    store.push_choice_point()
    for v in (5, 1, 20, 9, 12):  # five real changes: inner and bound exclusions
        assert store.exclude(x, v)
    assert len(store._trail) == 1
    inner = store.push_choice_point()
    assert store.exclude(x, 2) and store.exclude(x, 19)
    assert len(store._trail) == 2
    store.backtrack_to(inner)
    assert store.exclude(x, 3)  # depth 1 again: its entry is still there
    assert len(store._trail) == 1
    store.push_choice_point()   # depth 2 again: a fresh segment
    assert store.exclude(x, 4)
    assert len(store._trail) == 2


def test_backtrack_requires_live_choice_point():
    store = Store()
    store.new_var(make_interval(1, 3))
    cp = store.push_choice_point()
    store.backtrack_to(cp)
    with pytest.raises(InvariantError):
        store.backtrack_to(cp)


def test_no_variable_after_a_choice_point():
    # a backtrack does not remove variables, so none may be made after one
    store = Store()
    store.new_var(make_interval(1, 3))
    cp = store.push_choice_point()
    with pytest.raises(InvariantError):
        store.new_var(make_interval(1, 3))
    store.backtrack_to(cp)
    store.new_var(make_interval(1, 3))


def test_tightening_is_contracting():
    rng = random.Random(5)
    store = Store()
    xs = [store.new_var(make_interval(-5, 6)) for _ in range(4)]
    for _ in range(200):
        x = rng.choice(xs)
        before = set(store.domain(x).values())
        if rng.random() < 0.5:
            ok = store.exclude(x, rng.randint(-7, 8))
        else:
            lo = rng.randint(-7, 6)
            ok = store.intersect(x, lo, lo + rng.randint(0, 10))
        if not ok:
            break
        assert set(store.domain(x).values()) <= before


def test_nested_backtracking_matches_reference_snapshots():
    rng = random.Random(42)
    for _ in range(60):
        store = Store()
        xs = [store.new_var(make_interval(-3, rng.randint(0, 8))) for _ in range(3)]
        stack = []
        for _ in range(40):
            action = rng.random()
            if action < 0.35:
                stack.append((store.push_choice_point(), store_snapshot(store)))
            elif action < 0.55 and stack:
                cp, snap = stack.pop()
                store.backtrack_to(cp)
                assert store_snapshot(store) == snap
            else:
                x = rng.choice(xs)
                if store.domain(x).count == 0:
                    continue
                if rng.random() < 0.5:
                    store.exclude(x, rng.randint(-4, 9))
                else:
                    lo = rng.randint(-4, 8)
                    store.intersect(x, lo, lo + rng.randint(0, 6))
        while stack:
            cp, snap = stack.pop()
            store.backtrack_to(cp)
            assert store_snapshot(store) == snap


def test_event_faithfulness_randomized():
    """Posted events are exactly what the delta classification maps to."""
    from fdprop.domain import exclude_value, intersect_range

    rng = random.Random(7)
    for _ in range(300):
        store, events = recording_store()
        x = store.new_var(make_set(sorted(rng.sample(range(-5, 15), rng.randint(2, 10)))))
        store.push_choice_point()
        dom_before = store.domain(x)
        if rng.random() < 0.5:
            v = rng.randint(-6, 16)
            _, delta = exclude_value(dom_before, v)
            store.exclude(x, v)
        else:
            lo = rng.randint(-6, 14)
            hi = lo + rng.randint(0, 8)
            _, delta = intersect_range(dom_before, lo, hi)
            store.intersect(x, lo, hi)
        kind = delta.kind
        # one trail entry exactly when the domain changes
        changed = kind is not DeltaKind.UNCHANGED and kind is not DeltaKind.EMPTIED
        assert len(store._trail) == int(changed)
        assert (store.domain(x) is dom_before) is not changed
        if not changed:
            assert events == []
        elif kind is DeltaKind.INSTANTIATED:
            assert events == [(INS, x, None)]
        elif kind is DeltaKind.BOUND_CHANGED:
            assert events == [(BOUND, x, None)]
        else:
            assert events == [(DOM, x, v)]  # only exclude excludes inside


def _fields(store) -> list[tuple]:
    return [(v.lo, v.hi, v.count, v.bits, v.stamp) for v in store.vars]


def _reference_step(ref: set, op: tuple):
    """What a narrowing should do to a domain with members ``ref``: the
    call's result, the members after it and the events it posts, given
    as (kind, value) pairs."""
    name, *args = op
    if name == "bind":
        (v,) = args
        if ref == {v}:
            return True, ref, []
        name, args = "intersect", (v, v)
    if name == "exclude":
        (v,) = args
        new = ref - {v}
    else:
        lo, hi = args
        new = {w for w in ref if lo <= w <= hi}
    if new == ref:
        return True, ref, []
    if not new:
        return False, ref, []
    if len(new) == 1:
        return True, new, [(INS, None)]
    if name == "exclude" and min(ref) < op[1] < max(ref):
        return True, new, [(DOM, op[1])]
    return True, new, [(BOUND, None)]


def _assert_matches(store, refs):
    for var, ref in zip(store.vars, refs):
        assert set(members(var.lo, var.hi, var.bits)) == ref
        assert (var.lo, var.hi, var.count) == (min(ref), max(ref), len(ref))
        # bits exactly when a hole exists, and then bit 0 stands for lo
        assert (var.bits is None) == (var.count == var.hi - var.lo + 1)
        assert var.bits is None or var.bits & 1
        assert list(var.domain.values()) == sorted(ref)


def test_in_place_narrowing_matches_a_set_reference():
    """Random exclude/intersect/bind sequences inside up to three nested
    choice points, checked after every step against Python sets and the
    reference event classification: one trail entry per variable per
    depth, a snapshot that is replaced exactly on a real change, and
    backtracks that restore every field and stamp."""
    rng = random.Random(11)
    for _ in range(200):
        store, events = recording_store()
        for _ in range(rng.randint(1, 3)):
            vd = random_domain(rng)
            store.new_var(make_set(vd.values) if vd.values else make_interval(vd.lo, vd.hi))
        refs = [set(store.domain(x).values()) for x in range(len(store.vars))]
        open_cps = []  # (choice point, fields, reference sets) per depth
        for _ in range(40):
            roll = rng.random()
            if roll < 0.15 and len(open_cps) < 3:
                open_cps.append((store.push_choice_point(), _fields(store),
                                 [set(r) for r in refs]))
                continue
            if roll < 0.3 and open_cps:
                cp, fields, refs = open_cps.pop()
                store.backtrack_to(cp)
                assert _fields(store) == fields
                _assert_matches(store, refs)
                continue
            x = rng.randrange(len(store.vars))
            lo = min(refs[x]) - 2
            hi = max(refs[x]) + 2
            if roll < 0.7:
                op = ("exclude", rng.randint(lo, hi))
            elif roll < 0.9:
                a = rng.randint(lo, hi)
                op = ("intersect", a, a + rng.randint(0, 5))
            else:
                op = ("bind", rng.randint(lo, hi))
            ok, new, expected = _reference_step(refs[x], op)
            before = store.vars[x].domain
            trail_len = len(store._trail)
            fresh = store.vars[x].stamp != store.depth()
            events.clear()
            assert getattr(store, op[0])(x, *op[1:]) is ok
            assert events == [(kind, x, value) for kind, value in expected]
            changed = new is not refs[x]
            refs[x] = new
            _assert_matches(store, refs)
            assert (store.vars[x].domain is before) is not changed
            assert len(store._trail) == trail_len + (changed and fresh)
            if changed:
                assert store.vars[x].stamp == store.depth()
            # no variable has two entries in one depth's trail segment
            marks = [cp.trail_mark for cp in store._cps] + [len(store._trail)]
            for start, end in zip(marks, marks[1:]):
                segment = [entry[0] for entry in store._trail[start:end]]
                assert len(segment) == len(set(map(id, segment)))
        while open_cps:
            cp, fields, refs = open_cps.pop()
            store.backtrack_to(cp)
            assert _fields(store) == fields
            _assert_matches(store, refs)
