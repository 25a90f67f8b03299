import random

import pytest

from conftest import (
    domain_snapshot,
    post_own_diseq,
    random_model,
    store_snapshot,
    unmerged_queue,
)

from fdprop.domain import make_interval
from fdprop.model import ALL_SOLUTIONS, SolverConfig, build, parse_model, solve_model
from fdprop.runtime import END, Rule, Runtime
from fdprop.store import BOUND, DOM, INS, Store


def fresh(policy="fifo"):
    store = Store()
    rt = Runtime(store, queue_policy=policy, queue_seed=5)
    return store, rt


POLICIES = ("fifo", "lifo", "random")


def freeze_rules(store, x, log):
    """The classic delay pattern: wait for x, then fire the goal."""
    return [
        Rule(lambda: store.value(x) is None, ((INS, x),), lambda e: True),
        Rule(None, None, lambda e: (log.append("fired"), True)[1]),
    ]


def test_spawn_suspends_until_instantiation():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    log = []
    agent = rt.spawn(freeze_rules(store, x, log))
    assert agent.rule == 0
    assert log == []
    store.bind(x, 2)
    assert rt.run_to_fixpoint()
    assert log == ["fired"]
    assert agent.rule == END


def test_spawn_commits_when_already_bound():
    store, rt = fresh()
    x = store.new_var(make_interval(3, 3))
    log = []
    agent = rt.spawn(freeze_rules(store, x, log))
    assert agent.rule == END
    assert log == ["fired"]


def test_spawn_fails_with_no_applicable_rule():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    agent = rt.spawn([Rule(lambda: False, ((INS, x),), lambda e: True)])
    assert agent is None


def test_wake_order_is_creation_order():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    order = []

    def watcher(tag):
        return [
            Rule(None, ((BOUND, x),), lambda e, tag=tag: (order.append(tag), True)[1]),
        ]

    rt.spawn(watcher("first"))
    rt.spawn(watcher("second"))
    rt.spawn(watcher("third"))
    store.intersect(x, 2, 5)
    assert rt.run_to_fixpoint()
    assert order == ["first", "second", "third"]


def test_event_erasure_late_spawner_sleeps():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    seen = []
    rt.spawn([Rule(None, ((DOM, x),), lambda e: (seen.append("early"), True)[1])])
    store.exclude(x, 3)
    assert rt.run_to_fixpoint()
    assert seen == ["early"]
    late = rt.spawn([Rule(None, ((DOM, x),), lambda e: (seen.append("late"), True)[1])])
    assert rt.run_to_fixpoint()
    assert seen == ["early"]  # the earlier event is gone
    assert late.rule == 0


def test_event_erasure_during_expansion():
    """An agent that suspends on a list while that list's event is being
    taken is not woken by that event."""
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    seen = []
    late = []

    def spawn_late(e):
        seen.append("early")
        late.append(rt.spawn([Rule(None, ((INS, x),),
                                   lambda e: (seen.append("late"), True)[1])]))
        return True

    rt.spawn([Rule(None, ((INS, x),), spawn_late)])
    store.bind(x, 2)
    assert rt.run_to_fixpoint()
    assert seen == ["early"]
    assert late[0].rule == 0


def test_event_erasure_between_post_and_take():
    """An agent that suspends on a list after that list's event was
    posted, while the record waits in the queue, is not woken by it:
    the record holds the list's length at the post."""
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    y = store.new_var(make_interval(1, 5))
    seen = []
    late = []

    def spawn_late(e):
        late.append(rt.spawn([Rule(None, ((INS, x),),
                                   lambda e: (seen.append("late"), True)[1])]))
        return True

    rt.spawn([Rule(None, ((INS, y),), spawn_late)])
    rt.spawn([Rule(None, ((INS, x),), lambda e: (seen.append("early"), True)[1])])
    assert store.bind(y, 1) and store.bind(x, 2)
    assert rt.run_to_fixpoint()
    assert seen == ["early"]
    assert late[0].rule == 0


def test_posts_reach_only_watched_lists_with_shared_events():
    """The store calls the sink only for a kind that some agent watches
    on the variable.  An ins or bound record holds the variable's one
    event of that kind; a dom record holds a new event with its value.
    A second bound post while the first waits is merged into its
    record.  Waking reads the events and writes none of them."""
    store, rt = fresh()
    x = store.new_var(make_interval(1, 9))
    y = store.new_var(make_interval(1, 9))
    calls = []
    sink = store.event_sink

    def spy(kind, var, value):
        calls.append((kind, var, value))
        sink(kind, var, value)
    store.event_sink = spy
    seen = []
    rt.spawn([Rule(None, ((BOUND, x), (DOM, x), (INS, x), (INS, y)),
                   lambda e: (seen.append(e), True)[1])])
    assert store.intersect(y, 2, 9) and store.exclude(y, 5)  # y: only ins is watched
    assert store.intersect(x, 2, 9) and store.exclude(x, 5) and store.intersect(x, 3, 9)
    assert store.bind(x, 4) and store.bind(y, 3)
    assert calls == [(BOUND, x, None), (DOM, x, 5), (BOUND, x, None), (INS, x, None),
                     (INS, y, None)]
    events = [record[0] for record in rt.queue]
    assert rt.clock == len(events) == 4
    assert rt.pending == {x: rt.queue[0]}
    vx, vy = store.vars[x], store.vars[y]
    assert events[0] is vx.events[BOUND]
    assert events[2] is vx.events[INS] and events[3] is vy.events[INS]
    assert (events[1].kind, events[1].var, events[1].value) == (DOM, x, 5)
    assert vx.events[DOM] is None and vx.events[0] is None
    assert rt.run_to_fixpoint()
    assert seen == events and rt.pending == {}
    for i, var in enumerate(store.vars):
        assert [(e.kind, e.var, e.value) for e in var.events[INS:DOM]] == \
            [(INS, i, None), (BOUND, i, None)]


def test_action_failure_propagates():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    rt.spawn([Rule(None, ((INS, x),), lambda e: False)])
    store.bind(x, 1)
    assert not rt.run_to_fixpoint()


@pytest.mark.parametrize("policy", POLICIES)
def test_coalescing_duplicate_bounds_collapse(policy):
    store, rt = fresh(policy)
    x = store.new_var(make_interval(1, 9))
    y = store.new_var(make_interval(1, 9))
    runs = []
    # watch both variables: narrowing y twice from inside one drain batch
    rt.spawn([Rule(None, ((BOUND, x), (BOUND, y)), lambda e: (runs.append(repr(e)), True)[1])])

    def narrow_twice(e):
        assert store.intersect(y, 2, 9)
        assert store.intersect(y, 3, 9)
        return True

    rt.spawn([Rule(None, ((BOUND, x),), narrow_twice)])
    store.intersect(x, 2, 9)  # wakes both; the second posts two bound(y)
    assert rt.run_to_fixpoint()
    assert runs.count("bound(_1)") == 1  # the second bound(y) merged into the first


@pytest.mark.parametrize("policy", POLICIES)
def test_ins_does_not_shadow_bound(policy):
    """An agent that watches bound(x) and ins(x) gets both
    wakes when x is narrowed and then bound in one activation: the ins
    does not drop the bound queued before it."""
    store, rt = fresh(policy)
    x = store.new_var(make_interval(1, 9))
    trigger = store.new_var(make_interval(0, 1))
    seen = []
    rt.spawn([Rule(None, ((BOUND, x), (INS, x)),
                   lambda e: (seen.append(repr(e)), True)[1])])

    def bound_then_ins(e):
        assert store.intersect(x, 2, 9)   # bound(x)
        assert store.intersect(x, 9, 9)   # ins(x)
        return True

    rt.spawn([Rule(None, ((INS, trigger),), bound_then_ins)])
    store.bind(trigger, 1)
    assert rt.run_to_fixpoint()
    expected = ["bound(_0)", "ins(_0)"]
    if policy == "lifo":
        expected.reverse()
    elif policy == "random":
        seen.sort()
    assert seen == expected
    assert not rt.queue  # nothing left queued after the fixpoint


@pytest.mark.parametrize("policy", POLICIES)
def test_coalescing_bound_only_agent_runs_when_bound(policy):
    """An agent that watches bound(x) but not ins(x) runs on
    its one bound(x) wake even when x ends the fixpoint bound."""
    store, rt = fresh(policy)
    x = store.new_var(make_interval(1, 9))
    trigger = store.new_var(make_interval(0, 1))
    seen = []
    rt.spawn([Rule(None, ((BOUND, x),), lambda e: (seen.append(repr(e)), True)[1])])

    def bound_then_ins(e):
        assert store.intersect(x, 2, 9)
        assert store.intersect(x, 9, 9)
        return True

    rt.spawn([Rule(None, ((INS, trigger),), bound_then_ins)])
    store.bind(trigger, 1)
    assert rt.run_to_fixpoint()
    assert store.value(x) == 9
    assert seen == ["bound(_0)"]


def test_bound_posts_before_a_take_share_one_record():
    """Two bound(x) posts while the first record waits queue one record,
    extended to the list's length at the second post: it wakes an agent
    that suspended between the posts, and every agent once."""
    store, rt = fresh()
    x = store.new_var(make_interval(1, 9))
    runs = []

    def watcher(tag):
        return [Rule(None, ((BOUND, x),), lambda e: (runs.append(tag), True)[1])]

    rt.spawn(watcher("early"))
    assert store.intersect(x, 2, 9)
    rt.spawn(watcher("between"))
    assert store.intersect(x, 3, 9)
    assert rt.clock == len(rt.queue) == 1
    record = rt.queue[0]
    assert rt.pending == {x: record} and record[2] == 2
    assert rt.run_to_fixpoint()
    assert runs == ["early", "between"] and rt.pending == {}


def test_bound_post_after_the_take_queues_a_new_record():
    """Taking a bound record removes it from ``pending`` before it wakes
    anyone, so a bound post made while it is expanded queues a new
    record.  The agents after the poster on the list wake on both."""
    store, rt = fresh()
    x = store.new_var(make_interval(1, 9))
    runs = []
    states = []

    def narrow_once(e):
        runs.append("poster")
        if len(runs) == 1:
            states.append(dict(rt.pending))
            assert store.intersect(x, 3, 9)
            states.append(dict(rt.pending))
        return True

    rt.spawn([Rule(None, ((BOUND, x),), narrow_once)])
    rt.spawn([Rule(None, ((BOUND, x),), lambda e: (runs.append("later"), True)[1])])
    assert store.intersect(x, 2, 9)
    first = rt.queue[0]
    assert rt.run_to_fixpoint()
    assert states[0] == {}
    assert list(states[1]) == [x] and states[1][x] is not first
    assert rt.clock == 2 and rt.pending == {}
    assert runs == ["poster", "later", "poster", "later"]


def test_bound_post_after_a_failed_fixpoint_and_backtrack_queues_afresh():
    """A failed fixpoint leaves a bound record queued and pending; the
    backtrack discards both, so the next bound post queues a new record
    that wakes its agents."""
    store, rt = fresh()
    x = store.new_var(make_interval(1, 9))
    y = store.new_var(make_interval(1, 5))
    runs = []
    rt.spawn([Rule(None, ((INS, y),), lambda e: store.value(y) != 1)])
    rt.spawn([Rule(None, ((BOUND, x),), lambda e: (runs.append(repr(e)), True)[1])])
    cp = rt.push_choice_point()
    assert store.bind(y, 1) and store.intersect(x, 2, 9)
    assert not rt.run_to_fixpoint()  # fails on ins(y), bound(x) still queued
    assert list(rt.pending) == [x] and len(rt.queue) == 1
    rt.backtrack_to(cp)
    assert not rt.queue and rt.pending == {}
    assert store.intersect(x, 4, 9)
    assert len(rt.queue) == 1 and rt.pending == {x: rt.queue[0]}
    assert rt.run_to_fixpoint()
    assert runs == ["bound(_0)"]


class NoEntries(dict):
    """A ``Runtime.pending`` that fails the test on any entry."""

    def __setitem__(self, key, value):
        raise AssertionError(f"pending entry {key}")


def test_ins_only_agents_never_enter_pending():
    """Agents that watch only ins make the store post only ins, which
    never enters ``pending``."""
    store, rt = fresh()
    assert rt.pending == {}
    rt.pending = NoEntries()
    xs = [store.new_var(make_interval(1, hi)) for hi in (3, 2, 3)]
    for x in xs:  # pairwise X != Y
        assert post_own_diseq(rt, x, {z: (0,) for z in xs if z != x}, f"neq(_{x})")
    assert store.bind(xs[0], 2)
    assert rt.queue
    assert rt.run_to_fixpoint()  # binds xs[1] to 1, then xs[2] to 3
    assert not rt.queue  # nothing left queued after the fixpoint
    assert [store.value(x) for x in xs] == [2, 1, 3]


@pytest.mark.parametrize("policy", POLICIES)
def test_ins_and_dom_posts_never_enter_pending(policy):
    """Each ins and dom post queues its own record, outside ``pending``:
    two dom posts of one variable are two records."""
    store, rt = fresh(policy)
    x = store.new_var(make_interval(1, 9))
    seen = []
    rt.spawn([Rule(None, ((INS, x), (DOM, x)), lambda e: (seen.append(repr(e)), True)[1])])
    assert rt.pending == {}
    rt.pending = NoEntries()
    assert store.exclude(x, 4) and store.exclude(x, 6) and store.bind(x, 5)
    assert rt.clock == len(rt.queue) == 3 and rt.pending == {}
    assert rt.run_to_fixpoint()
    assert sorted(seen) == ["dom(_0,4)", "dom(_0,6)", "ins(_0)"]


def test_distinct_dom_payloads_each_activate():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 9))
    trigger = store.new_var(make_interval(0, 1))
    payloads = []
    rt.spawn([Rule(None, ((DOM, x),), lambda e: (payloads.append(e.value), True)[1])])

    def poke(e):
        assert store.exclude(x, 3)
        assert store.exclude(x, 5)
        return True

    rt.spawn([Rule(None, ((INS, trigger),), poke)])
    store.bind(trigger, 0)
    assert rt.run_to_fixpoint()
    assert payloads == [3, 5]


def test_generated_action_hears_its_own_events():
    """An agent's generation-time reductions must re-activate itself."""
    store, rt = fresh()
    x = store.new_var(make_interval(1, 9))
    runs = []

    def act(e):
        runs.append(repr(e))
        if len(runs) == 1:
            assert store.intersect(x, 2, 9)
        return True

    rt.spawn([Rule(None, ((BOUND, x),), act, run_on_generated=True)])
    assert rt.run_to_fixpoint()
    assert runs == ["generated", "bound(_0)"]


@pytest.mark.parametrize("run_on_generated", [True, False])
def test_guard_fall_through_enters_the_next_rule(run_on_generated):
    """A wake whose guard fails falls through to the next action rule.
    With run_on_generated the agent runs that rule's action on entry,
    exactly once and with the generated event, though the wake that fell
    through is also on the new rule's watch set; without it the agent
    only suspends there.  Later wakes run the action with their own
    event either way."""
    store, rt = fresh()
    x = store.new_var(make_interval(1, 9))
    y = store.new_var(make_interval(1, 9))
    runs = []
    agent = rt.spawn([
        Rule(lambda: store.domain(x).hi > 5, ((BOUND, x),), lambda e: True),
        Rule(None, ((BOUND, x), (DOM, y)), lambda e: (runs.append(repr(e)), True)[1],
             run_on_generated),
    ])
    assert agent.rule == 0 and runs == []
    assert store.intersect(x, 1, 5) and rt.run_to_fixpoint()
    entry = ["generated"] if run_on_generated else []
    assert agent.rule == 1 and runs == entry
    assert store.exclude(y, 4) and rt.run_to_fixpoint()
    assert runs == entry + ["dom(_1,4)"]


def test_failing_entry_action_fails_the_wake():
    """An entry action that fails fails the fixpoint whose wake fell
    through to it; the backtrack puts the agent back on its old rule and
    takes it off the new rule's watcher lists."""
    store, rt = fresh()
    x = store.new_var(make_interval(1, 9))
    agent = rt.spawn([
        Rule(lambda: store.domain(x).hi > 5, ((BOUND, x),), lambda e: True),
        Rule(None, ((DOM, x),), lambda e: False, True),
    ])
    before = store_snapshot(store)
    cp = rt.push_choice_point()
    assert store.intersect(x, 1, 5)
    assert not rt.run_to_fixpoint()
    assert agent.rule == 1
    rt.backtrack_to(cp)
    assert agent.rule == 0 and store_snapshot(store) == before


def test_ended_agents_stay_ended_and_backtrack_restores_rules(monkeypatch):
    """Once an agent commits (rule END), none of its actions runs again
    unless a backtrack undoes the commitment; a backtrack restores
    every surviving agent's rule and every watcher list.  Besides the
    model's propagators, each run has one agent that sleeps on each
    variable in turn, so that rule switches after a failed guard, and
    their undo, are covered too."""
    committed = []  # agents whose commitment rule succeeded, in order
    original_spawn = Runtime.spawn

    def spawn(rt, rules, *, name=""):
        aid = len(rt.agents)  # the id the new agent gets

        def wrap(rule):
            def action(event):
                agent = rt.agents[aid]
                assert not any(a is agent for a in committed), \
                    f"{agent!r} ran after it ended"
                ok = rule.action(event)
                if ok and rule.watch is None:
                    committed.append(agent)
                return ok
            return Rule(rule.guard, rule.watch, action, rule.run_on_generated)

        return original_spawn(rt, [wrap(r) for r in rules], name=name)

    monkeypatch.setattr(Runtime, "spawn", spawn)
    rng = random.Random(31)
    for trial in range(60):
        model = random_model(rng)
        committed.clear()
        store, rt, ok = build(model, SolverConfig(),
                              queue_policy=POLICIES[trial % 3], queue_seed=trial)
        chain = [Rule(lambda x=x: store.value(x) is None, ((INS, x),), lambda e: True)
                 for x in range(len(model.vars))]
        ok = ok and rt.spawn(chain + [Rule(None, None, lambda e: True)]) is not None
        if not (ok and rt.run_to_fixpoint()):
            continue
        stack = []
        for _ in range(rng.randint(1, 4)):
            unbound = [x for x in range(len(model.vars)) if store.value(x) is None]
            if not unbound:
                break
            stack.append(([(a, a.rule) for a in rt.agents], store_snapshot(store),
                          len(committed), rt.push_choice_point()))
            x = rng.choice(unbound)
            ok = (store.bind(x, rng.choice(list(store.domain(x).values())))
                  and rt.run_to_fixpoint())
            assert all(a.rule == END for a in committed)
            if not ok:
                break
        while stack:
            rules, snapshot, n_committed, cp = stack.pop()
            rt.backtrack_to(cp)
            del committed[n_committed:]
            assert [(a, a.rule) for a in rt.agents] == rules
            assert store_snapshot(store) == snapshot


def test_guard_purity_randomized():
    rng = random.Random(13)
    for _ in range(40):
        model = random_model(rng)
        store, rt, ok = build(model, SolverConfig())
        if not ok:
            continue
        for agent in rt.agents:
            for rule in agent.rules:
                if rule.guard is None:
                    continue
                before = store_snapshot(store)
                rule.guard()
                assert store_snapshot(store) == before


def test_scheduling_policy_does_not_change_fixpoints():
    rng = random.Random(77)
    for _ in range(60):
        model = random_model(rng)
        outcomes = []
        for policy, seed in (("fifo", None), ("lifo", None), ("random", 3)):
            store, rt, ok = build(model, SolverConfig(),
                                  queue_policy=policy, queue_seed=seed)
            if ok:
                ok = rt.run_to_fixpoint()
            outcomes.append((ok, domain_snapshot(store) if ok else None))
        assert outcomes[0] == outcomes[1] == outcomes[2]


def test_push_choice_point_requires_drained_queue():
    import pytest
    from fdprop.store import InvariantError

    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    rt.spawn([Rule(None, ((DOM, x),), lambda e: True)])
    store.exclude(x, 3)  # queues an activation
    with pytest.raises(InvariantError):
        rt.push_choice_point()


def test_backtrack_restores_agent_table_and_watchers():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 5))
    rt.spawn([Rule(None, ((INS, x),), lambda e: True)])
    cp = rt.push_choice_point()
    rt.spawn([Rule(None, ((INS, x), (BOUND, x)), lambda e: True)])
    assert len(rt.agents) == 2
    assert len(store.vars[x].watchers[BOUND]) == 1
    rt.backtrack_to(cp)
    assert len(rt.agents) == 1
    assert store.vars[x].watchers[BOUND] == []
    assert len(store.vars[x].watchers[INS]) == 1


def test_backtrack_after_failed_fixpoint_discards_queued_activations():
    def setup():
        store, rt = fresh()
        x = store.new_var(make_interval(1, 5))
        y = store.new_var(make_interval(1, 5))
        log = []
        rt.spawn([Rule(None, ((INS, x),), lambda e: store.value(x) != 1)])
        rt.spawn([Rule(None, ((INS, x), (BOUND, y)),
                       lambda e: (log.append(repr(e)), True)[1])])
        return store, rt, x, y, log

    def propagate(store, rt, x, y, log):
        activations = rt.activations
        assert store.bind(x, 2) and store.intersect(y, 2, 5)
        assert rt.run_to_fixpoint()
        return log, rt.activations - activations, domain_snapshot(store)

    store, rt, x, y, log = setup()
    cp = rt.push_choice_point()
    assert store.bind(x, 1) and store.intersect(y, 2, 5)
    assert not rt.run_to_fixpoint()  # the first agent fails ...
    # ... with the bound(y) record still queued
    assert [repr(event) for event, *_ in rt.queue] == ["bound(_1)"]
    rt.backtrack_to(cp)
    assert not rt.queue
    assert propagate(store, rt, x, y, log) == propagate(*setup())


# t = 0 makes x = y + 1 and y = x + 1: bounds propagation removes one
# value per round until a domain empties, about 2000 narrowings
SLOW_PAIR = """\
var t in 0..1
var x in 1..2000
var y in 1..2000
lin -1 1*x -1*y 1*t = 0
lin -1 1*y -1*x 1*t = 0
label t x y
"""


@pytest.mark.parametrize("level", ["ic", "ac"])
def test_long_fixpoint_trails_each_variable_once(level):
    store, rt, ok = build(parse_model(SLOW_PAIR), SolverConfig(level=level))
    assert ok and rt.run_to_fixpoint()
    rt.push_choice_point()
    assert store.bind(0, 0)
    assert not rt.run_to_fixpoint()
    assert len(store._trail) == 3  # t, x and y, once each


def test_record_queue_matches_item_queue():
    """Under every level, the merged record queue reaches the reference
    queue's root fixpoints and solutions with the same backtracks
    (``ItemRuntime``, which merges nothing), and with fewer activations
    in total over the models."""
    rng = random.Random(41)
    models = [random_model(rng) for _ in range(200)]

    def run(model, level):
        store, rt, ok = build(model, SolverConfig(level=level))
        root = domain_snapshot(store) if ok and rt.run_to_fixpoint() else None
        r = solve_model(model, SolverConfig(level=level, mode=ALL_SOLUTIONS))
        return (root, r.backtracks, r.solutions), r.activations

    engine_total = reference_total = 0
    for model in models:
        for level in ("fc", "ic", "ac"):
            engine, activations = run(model, level)
            engine_total += activations
            with unmerged_queue():
                reference, activations = run(model, level)
            reference_total += activations
            assert engine == reference
    assert engine_total < reference_total
