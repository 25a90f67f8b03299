import random

import pytest

from conftest import domain_snapshot, random_model, store_snapshot

from fdprop.domain import make_interval
from fdprop.model import SolverConfig, build
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
    assert runs.count("bound(_1)") == 1  # duplicate bound(y) coalesced


@pytest.mark.parametrize("policy", POLICIES)
def test_coalescing_ins_shadows_bound(policy):
    # under lifo the superseded bound is taken after its ins
    store, rt = fresh(policy)
    x = store.new_var(make_interval(1, 9))
    trigger = store.new_var(make_interval(0, 1))
    seen = []
    rt.spawn([Rule(None, ((BOUND, x), (INS, x)),
                   lambda e: (seen.append(repr(e)), True)[1])])

    def bound_then_ins(e):
        assert store.intersect(x, 2, 9)   # bound(x) pending
        assert store.intersect(x, 9, 9)   # ins(x): the bound is shadowed
        return True

    rt.spawn([Rule(None, ((INS, trigger),), bound_then_ins)])
    store.bind(trigger, 1)
    assert rt.run_to_fixpoint()
    assert seen == ["ins(_0)"]


def test_no_coalescing_for_general_agents():
    store, rt = fresh()
    x = store.new_var(make_interval(1, 9))
    trigger = store.new_var(make_interval(0, 1))
    seen = []
    rt.spawn([Rule(None, ((BOUND, x), (INS, x)),
                   lambda e: (seen.append(repr(e)), True)[1])],
             coalesce=False)

    def bound_then_ins(e):
        assert store.intersect(x, 2, 9)
        assert store.intersect(x, 9, 9)
        return True

    rt.spawn([Rule(None, ((INS, trigger),), bound_then_ins)])
    store.bind(trigger, 1)
    assert rt.run_to_fixpoint()
    assert seen == ["bound(_0)", "ins(_0)"]


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


def test_ended_agents_stay_ended_and_backtrack_restores_rules(monkeypatch):
    """Once an agent commits (rule END), none of its actions runs again
    unless a backtrack undoes the commitment; a backtrack restores
    every surviving agent's rule.  Besides the model's propagators,
    each run has one agent that sleeps on each variable in turn, so
    that rule switches after a failed guard are covered too."""
    committed = []  # agents whose commitment rule succeeded, in order
    original_spawn = Runtime.spawn

    def spawn(rt, rules, *, coalesce=True, name=""):
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

        return original_spawn(rt, [wrap(r) for r in rules],
                              coalesce=coalesce, name=name)

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
            stack.append(([(a, a.rule) for a in rt.agents], len(committed),
                          rt.push_choice_point()))
            x = rng.choice(unbound)
            ok = (store.bind(x, rng.choice(list(store.domain(x).values())))
                  and rt.run_to_fixpoint())
            assert all(a.rule == END for a in committed)
            if not ok:
                break
        while stack:
            rules, n_committed, cp = stack.pop()
            rt.backtrack_to(cp)
            del committed[n_committed:]
            assert [(a, a.rule) for a in rt.agents] == rules


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
    assert len(store.vars[x].bound_watchers) == 1
    rt.backtrack_to(cp)
    assert len(rt.agents) == 1
    assert store.vars[x].bound_watchers == []
    assert len(store.vars[x].ins_watchers) == 1


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
    store.bind(x, 1)
    assert not rt.run_to_fixpoint()  # the first agent fails ...
    assert rt.queue and rt.pending   # ... with the second still queued
    rt.backtrack_to(cp)
    assert not rt.queue and not rt.pending
    assert propagate(store, rt, x, y, log) == propagate(*setup())
