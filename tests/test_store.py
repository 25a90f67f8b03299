import random

import pytest

from conftest import random_domain, store_snapshot, watch_every_list

from fdprop.domain import DeltaKind, make_interval, make_set, members
from fdprop.store import (
    BOUND,
    DOM,
    INS,
    InvariantError,
    Record,
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
    watch_every_list(store)
    assert store.exclude(x, 3)
    assert events == [(DOM, x, 3)]

    events.clear()
    y = store.new_var(make_set([2, 3]))
    watch_every_list(store)
    assert store.exclude(y, 3)
    assert events == [(INS, y, None)]  # no bound event on instantiation
    assert store.value(y) == 2

    events.clear()
    z = store.new_var(make_interval(1, 5))
    watch_every_list(store)
    assert store.intersect(z, 2, 9)
    assert events == [(BOUND, z, None)]

    events.clear()
    w = store.new_var(make_interval(4, 4))
    assert not store.exclude(w, 4)


def test_bind_posts_ins_and_sets_value():
    store, events = recording_store()
    x = store.new_var(make_interval(1, 5))
    watch_every_list(store)
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
    watch_every_list(store)
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


def test_a_stale_choice_point_leaves_the_store_as_it_was():
    # b is gone after the first backtrack to it: the second must raise
    # before it pops anything, so a stays live and restores x
    store = Store()
    x = store.new_var(make_interval(1, 9))
    a = store.push_choice_point()
    assert store.exclude(x, 1)
    b = store.push_choice_point()
    assert store.exclude(x, 9)
    store.backtrack_to(b)
    with pytest.raises(InvariantError):
        store.backtrack_to(b)
    assert store.depth() == 1
    assert list(store.domain(x).values()) == list(range(2, 10))
    store.backtrack_to(a)
    assert store.depth() == 0
    assert list(store.domain(x).values()) == list(range(1, 10))


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
        watch_every_list(store)
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
    as (kind, value) pairs.  ("remove_bits", base, mask) removes the
    values base + i for each bit i of mask."""
    name, *args = op
    if name == "bind":
        (v,) = args
        if ref == {v}:
            return True, ref, []
        name, args = "intersect", (v, v)
    if name == "exclude":
        (v,) = args
        new = ref - {v}
    elif name == "remove_bits":
        base, mask = args
        new = {w for w in ref if w < base or not (mask >> (w - base)) & 1}
    else:
        lo, hi = args
        new = {w for w in ref if lo <= w <= hi}
    if new == ref:
        return True, ref, []
    if not new:
        return False, ref, []
    if len(new) == 1:
        return True, new, [(INS, None)]
    if name == "remove_bits":
        moved = (min(new), max(new)) != (min(ref), max(ref))
        return True, new, [(BOUND, None)] * moved + [
            (DOM, w) for w in sorted(ref - new) if min(new) < w < max(new)]
    if name == "exclude" and min(ref) < op[1] < max(ref):
        return True, new, [(DOM, op[1])]
    return True, new, [(BOUND, None)]


def _aligned_hits(var, base: int, mask: int) -> int:
    """The members of var among the values base + i, bit i of mask, as a
    bit vector aligned to var's ``lo``: the forward-checking commit's
    shift and AND."""
    shift = base - var.lo
    m = mask << shift if shift >= 0 else mask >> -shift
    return m & ((1 << (var.hi - var.lo + 1)) - 1 if var.bits is None else var.bits)


def _domain_fields(d) -> tuple:
    return (d.lo, d.hi, d.count, d.bits)


def _assert_domains(store, refs):
    """Each variable's ``domain`` read has the variable's fields and
    the reference's members."""
    for var, ref in zip(store.vars, refs):
        d = var.domain
        assert _domain_fields(d) == (var.lo, var.hi, var.count, var.bits)
        assert list(d.values()) == sorted(ref)


def _assert_matches(store, refs):
    for var, ref in zip(store.vars, refs):
        assert set(members(var.lo, var.hi, var.bits)) == ref
        assert (var.lo, var.hi, var.count) == (min(ref), max(ref), len(ref))
        # bits exactly when a hole exists, and then bit 0 stands for lo
        assert (var.bits is None) == (var.count == var.hi - var.lo + 1)
        assert var.bits is None or var.bits & 1
    _assert_domains(store, refs)


def test_in_place_narrowing_matches_a_set_reference():
    """Random exclude/remove_bits/intersect/bind sequences inside up to
    three nested choice points, checked after every step against Python
    sets and the reference events: one trail entry per variable per
    depth, a ``domain`` read that is a new object exactly on a real
    change and, after every step, has the fields and the reference's
    members, and backtracks that restore every field and stamp, so
    that a read gives the domain of the choice point by value.  Each
    variable watches a random set of kinds: the sink gets exactly the
    reference's events of those kinds, in order, and is never called
    for the others."""
    rng = random.Random(11)
    # the watched kinds come from their own generator, so that the
    # narrowing sequence is the same whatever is watched
    watch_rng = random.Random(12)
    delivered = dict.fromkeys((INS, BOUND, DOM), 0)
    withheld = dict(delivered)
    # remove_bits calls by shift direction (mask shifted left: its base
    # above lo), and those that wipe the domain out
    shifted = {True: 0, False: 0}
    wipe_outs = 0
    for _ in range(250):
        store, events = recording_store()
        for _ in range(rng.randint(1, 3)):
            vd = random_domain(rng)
            store.new_var(make_set(vd.values) if vd.values else make_interval(vd.lo, vd.hi))
        watched = [{kind for kind in (INS, BOUND, DOM) if watch_rng.random() < 0.6}
                   for _ in store.vars]
        for x, kinds in enumerate(watched):
            watch_every_list(store, [x], kinds)
        refs = [set(store.domain(x).values()) for x in range(len(store.vars))]
        # (choice point, fields, reference sets, domain fields) per depth
        open_cps = []
        for _ in range(40):
            roll = rng.random()
            if roll < 0.15 and len(open_cps) < 3:
                open_cps.append((store.push_choice_point(), _fields(store),
                                 [set(r) for r in refs],
                                 [_domain_fields(v.domain) for v in store.vars]))
                continue
            if roll < 0.3 and open_cps:
                cp, fields, refs, domains = open_cps.pop()
                store.backtrack_to(cp)
                assert _fields(store) == fields
                assert [_domain_fields(v.domain) for v in store.vars] == domains
                _assert_matches(store, refs)
                continue
            x = rng.randrange(len(store.vars))
            lo = min(refs[x]) - 2
            hi = max(refs[x]) + 2
            if roll < 0.55:
                op = ("exclude", rng.randint(lo, hi))
            elif roll < 0.7:
                base = rng.randint(lo, hi)
                values = {w for w in range(base, hi + 3) if rng.random() < 0.3}
                if rng.random() < 0.1:
                    values |= {w for w in refs[x] if w >= base}
                op = ("remove_bits", base, sum(1 << (w - base) for w in values))
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
            if op[0] == "remove_bits":
                m = _aligned_hits(store.vars[x], *op[1:])
                if not m:
                    assert new is refs[x]
                    continue
                shifted[op[1] > store.vars[x].lo] += 1
                wipe_outs += not ok
                assert store.remove_bits(x, store.vars[x], m) is ok
            else:
                assert getattr(store, op[0])(x, *op[1:]) is ok
            assert events == [(kind, x, value) for kind, value in expected
                              if kind in watched[x]]
            for kind, _ in expected:
                (delivered if kind in watched[x] else withheld)[kind] += 1
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
            cp, fields, refs, domains = open_cps.pop()
            store.backtrack_to(cp)
            assert _fields(store) == fields
            assert [_domain_fields(v.domain) for v in store.vars] == domains
            _assert_matches(store, refs)
    assert min(shifted.values()) > 100 and wipe_outs > 20, (shifted, wipe_outs)
    assert min(delivered.values()) > 100 and min(withheld.values()) > 100, (delivered, withheld)


def test_a_read_after_a_backtrack_gives_the_restored_fields():
    """The memo behind ``domain`` is not trailed: after a backtrack it
    may still hold a later domain, and a read must give the restored
    fields instead, also when only the holes differ."""
    store = Store()
    x = store.new_var(make_interval(1, 9))
    var = store.vars[x]
    assert store.exclude(x, 5) and store.exclude(x, 6)
    outer = store.push_choice_point()
    assert store.exclude(x, 1)
    middle = store.domain(x)
    inner = store.push_choice_point()
    assert store.exclude(x, 9)
    later = store.domain(x)
    store.backtrack_to(inner)
    assert var.memo is later
    restored = store.domain(x)
    assert restored is store.domain(x)  # kept while the fields hold
    assert _domain_fields(restored) == _domain_fields(middle)
    assert list(restored.values()) == [2, 3, 4, 7, 8, 9]
    # a different interior exclusion, with no read in between: the
    # memo has the same bounds and count as the fields, not the holes
    cp = store.push_choice_point()
    assert store.exclude(x, 3)
    assert list(store.domain(x).values()) == [2, 4, 7, 8, 9]
    store.backtrack_to(cp)
    assert store.exclude(x, 4)
    assert (var.memo.lo, var.memo.hi, var.memo.count) == (var.lo, var.hi, var.count)
    assert list(store.domain(x).values()) == [2, 3, 7, 8, 9]
    store.backtrack_to(outer)
    assert list(store.domain(x).values()) == [1, 2, 3, 4, 7, 8, 9]


def test_records_and_variables_share_one_trail_randomized():
    """Random narrowings and record changes, each record change after
    ``save_record`` as the all_distinct commit makes it, inside up to
    four nested choice points: one trail entry per variable or record
    per depth, and every backtrack restores each variable's fields and
    stamp and each record's ``live`` and stamp, checked against copies
    taken at the choice point.  Domains are read only now and then, so
    a read often finds the memo of another state."""
    rng = random.Random(29)
    record_entries = variable_entries = stale_reads = 0
    for _ in range(150):
        store = Store()
        for _ in range(rng.randint(1, 3)):
            vd = random_domain(rng)
            store.new_var(make_set(vd.values) if vd.values else make_interval(vd.lo, vd.hi))
        records = [Record(tuple(range(rng.randint(0, 4)))) for _ in range(rng.randint(1, 2))]
        refs = [set(store.domain(x).values()) for x in range(len(store.vars))]

        def state():
            return _fields(store), [(r.live, r.stamp) for r in records]

        # (choice point, state, reference sets) per depth
        open_cps = []
        for _ in range(50):
            roll = rng.random()
            if roll < 0.15 and len(open_cps) < 4:
                open_cps.append((store.push_choice_point(), state(), [set(r) for r in refs]))
            elif roll < 0.3 and open_cps:
                cp, before, refs = open_cps.pop()
                store.backtrack_to(cp)
                assert state() == before
            elif roll < 0.5:
                record = rng.choice(records)
                trail_len = len(store._trail)
                fresh = record.stamp != store.depth()
                store.save_record(record)
                live = record.live
                if live and rng.random() < 0.5:
                    i = rng.randrange(len(live))
                    record.live = live[:i] + live[i + 1:]
                else:
                    record.live = live + (rng.randint(0, 9),)
                assert len(store._trail) == trail_len + fresh
                assert record.stamp == store.depth()
                record_entries += fresh
            else:
                x = rng.randrange(len(store.vars))
                lo = min(refs[x]) - 1
                if rng.random() < 0.6:
                    op = ("exclude", rng.randint(lo, max(refs[x]) + 1))
                else:
                    a = rng.randint(lo, max(refs[x]))
                    op = ("intersect", a, a + rng.randint(0, 6))
                ok, new, _ = _reference_step(refs[x], op)
                trail_len = len(store._trail)
                fresh = store.vars[x].stamp != store.depth()
                assert getattr(store, op[0])(x, *op[1:]) is ok
                changed = new is not refs[x]
                assert len(store._trail) == trail_len + (changed and fresh)
                variable_entries += changed and fresh
                refs[x] = new
            if rng.random() < 0.3:
                stale_reads += sum(_domain_fields(v.memo) != _domain_fields(v)
                                   for v in store.vars)
                _assert_domains(store, refs)
        while open_cps:
            cp, before, refs = open_cps.pop()
            store.backtrack_to(cp)
            assert state() == before
            _assert_domains(store, refs)
    assert min(record_entries, variable_entries, stale_reads) > 200, \
        (record_entries, variable_entries, stale_reads)
