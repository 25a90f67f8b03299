"""Event-driven propagator runtime.

Agents are suspended computations attached to variables.  Each agent
carries an ordered list of guarded rules; the first rule whose guard
holds is selected, in textual order.  A rule with a watch set suspends
the agent on those events; a rule without one (a commitment rule) runs
its body and ends the agent.  An agent's only mutable state is the
index of the action rule it sleeps on, or END once it has committed;
a change of that index is trailed.  Posting an event wakes every agent
not at END that watches it and then erases the event: agents spawned
later never see it.

Scheduling is first-generated-first-served: a post enqueues one
(agent, event) item per woken agent, in ascending creation order, and
the global queue is drained FIFO.  Monotone propagators must not rely
on that order; a test-only queue policy switch (lifo / random) exists
to certify they do not.  A failed fixpoint leaves items queued; the
backtrack that follows discards them.

Redundant wakes are coalesced for constraint propagators: within one
batch of pending activations, duplicate bound events for one variable
collapse to one, and a pending bound event is dropped when an ins event
for the same variable arrives.  Distinct dom payloads are never merged.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Optional, Sequence

from .store import BOUND, DOM, EVENT_NAMES, GENERATED, INS, InvariantError, Store


END = -1  # Agent.rule before the first suspension and after commitment


class Event:
    """A posted occurrence: kind, variable, and for dom events the
    excluded element."""

    __slots__ = ("kind", "var", "value")

    def __init__(self, kind: int, var: Optional[int], value: Optional[int]):
        self.kind = kind
        self.var = var
        self.value = value

    def __repr__(self):
        name = EVENT_NAMES[self.kind]
        if self.kind == GENERATED:
            return "generated"
        if self.kind == DOM:
            return f"dom(_{self.var},{self.value})"
        return f"{name}(_{self.var})"


class Rule:
    """One guarded rule of an agent.

    guard: nullary predicate, side-effect free (None = always true).
    watch: tuple of (event kind, var id) to suspend on; None makes this
    a commitment rule.  run_on_generated runs the action once before
    the first suspension.  action: callable(event) -> bool, False
    signalling constraint inconsistency.
    """

    __slots__ = ("guard", "watch", "run_on_generated", "action")

    def __init__(self, guard: Optional[Callable[[], bool]],
                 watch: Optional[tuple],
                 action: Callable[[Event], bool],
                 run_on_generated: bool = False):
        self.guard = guard
        self.watch = watch
        self.run_on_generated = run_on_generated
        self.action = action


class Agent:
    """A suspended propagator.

    ``rule`` is the index of the action rule the agent sleeps on.  It
    is END before the first suspension and after a commitment rule has
    run; END is absorbing.  The agent stays on the watcher lists of
    every rule it has slept on; a wake is ignored once it is at END.
    """

    __slots__ = ("id", "rules", "rule", "coalesce", "name")

    def __init__(self, aid: int, rules: Sequence[Rule], coalesce: bool, name: str):
        self.id = aid
        self.rules = list(rules)
        self.rule = END
        self.coalesce = coalesce
        self.name = name

    def __repr__(self):
        state = "end" if self.rule == END else f"rule {self.rule}"
        return f"Agent#{self.id}({self.name or 'anon'},{state})"


class Runtime:
    """Agent table, activation queue, and the fixpoint driver.

    Created around a store; installs itself as the store's event sink
    and restore hook so that choice points snapshot both together.

    ``queue`` holds pending (agent, event) items.  ``pending`` maps
    (agent id, var) to the one live ins/bound item of a coalescing
    agent; an item that is no longer the map's entry for its key was
    superseded and is skipped when taken.  A choice point is only made
    with an empty queue, so backtracking empties both.  The agent trail
    holds (agent, old rule) for every change of an existing agent's
    rule; a backtrack undoes those and drops the agents created since.
    """

    def __init__(self, store: Store, *, coalescing: bool = True,
                 queue_policy: str = "fifo", queue_seed: Optional[int] = None,
                 trace=None):
        self.store = store
        self.agents: list[Agent] = []
        self.queue: deque[tuple[Agent, Event]] = deque()
        self.pending: dict[tuple[int, int], tuple[Agent, Event]] = {}
        self._take = self._taker(queue_policy, queue_seed)
        self.coalescing = coalescing
        self.trace = trace
        self.activations = 0
        self._trace_seq = 0
        self._agent_trail: list[tuple[Agent, int]] = []
        store.event_sink = self._post_kind
        store._runtime_mark = self._mark
        store._runtime_restore = self._restore

    def _taker(self, policy: str, seed: Optional[int]):
        """The queue's take callable: 'fifo' (the default), or 'lifo'
        and seeded 'random', which exist only to test that fixpoints do
        not depend on scheduling."""
        queue = self.queue
        if policy == "fifo":
            return queue.popleft
        if policy == "lifo":
            return queue.pop
        if policy != "random":
            raise ValueError(f"unknown queue policy {policy!r}")
        rng = random.Random(seed)

        def take():
            i = rng.randrange(len(queue))
            queue[i], queue[-1] = queue[-1], queue[i]
            return queue.pop()
        return take

    # -- choice-point marks ----------------------------------------------------

    def _mark(self):
        return (len(self.agents), len(self._agent_trail))

    def _restore(self, marks) -> None:
        agent_count, trail_mark = marks
        trail = self._agent_trail
        for agent, rule in reversed(trail[trail_mark:]):
            agent.rule = rule
        del trail[trail_mark:]
        del self.agents[agent_count:]
        self.queue.clear()
        self.pending.clear()

    # -- posting and waking ----------------------------------------------------

    def _post_kind(self, kind: int, var: int, value: Optional[int]) -> None:
        """Store-facing sink: wake the sleepers, then the event is gone."""
        watchers = self.store.vars[var].watchers(kind)
        if not watchers:
            return
        event = Event(kind, var, value)
        agents = self.agents
        push = self.queue.append
        pending = self.pending
        coalescing = self.coalescing and kind != DOM
        for aid in watchers:
            agent = agents[aid]
            if agent.rule == END:
                continue
            item = (agent, event)
            if coalescing and agent.coalesce:
                key = (aid, var)
                old = pending.get(key)
                if old is not None and (kind == BOUND or old[1].kind == INS):
                    continue  # duplicate bound or ins, or bound shadowed by ins
                pending[key] = item  # new, or an ins superseding a bound
            push(item)

    # -- spawning ---------------------------------------------------------------

    def spawn(self, rules: Sequence[Rule], *, coalesce: bool = True,
              name: str = "") -> Optional[Agent]:
        """Create an agent and run rule selection.  Returns the agent,
        or None when the agent fails (no applicable rule, or its
        generation-time action fails).  coalesce marks the agent as a
        constraint propagator whose redundant wakes may be suppressed;
        general agents should pass False to receive every event."""
        agent = Agent(len(self.agents), rules, coalesce, name)
        self.agents.append(agent)
        if self._select(agent, 0, generating=True):
            return agent
        return None

    def _register(self, agent: Agent, idx: int) -> None:
        store = self.store
        for kind, var in agent.rules[idx].watch:
            lst = store.vars[var].watchers(kind)
            lst.append(agent.id)
            store.note_watcher_push(lst)

    def _select(self, agent: Agent, start: int, generating: bool,
                event: Optional[Event] = None) -> bool:
        """Find the first applicable rule from ``start`` onward and
        commit/suspend accordingly.  False = the agent fails.  A new
        agent's rule needs no trail entry: a backtrack past its
        creation deletes it."""
        if event is None:
            event = _GENERATED_EVENT
        rules = agent.rules
        for idx in range(start, len(rules)):
            rule = rules[idx]
            guard = rule.guard
            if guard is not None and not guard():
                continue
            if rule.watch is None:
                self.activations += 1
                ok = rule.action(event)
                if self.trace is not None:
                    self._trace_line(agent, event, idx, "end" if ok else "fail")
                if ok and not generating:
                    self._agent_trail.append((agent, agent.rule))
                    agent.rule = END
                return ok
            # action rule: suspend (register first so the agent hears
            # the events its own generation-time action posts)
            if not generating:
                self._agent_trail.append((agent, agent.rule))
            agent.rule = idx
            self._register(agent, idx)
            if generating and rule.run_on_generated:
                return self._run_action(agent, rule, idx, _GENERATED_EVENT)
            return True
        self._trace_line(agent, event, -1, "fail")
        return False

    def _run_action(self, agent: Agent, rule: Rule, idx: int, event: Event) -> bool:
        self.activations += 1
        ok = rule.action(event)
        if self.trace is not None:
            self._trace_line(agent, event, idx, "ok" if ok else "fail")
        return ok

    def _trace_line(self, agent: Agent, event: Event, rule_idx: int,
                    outcome: str) -> None:
        if self.trace is None:
            return
        self._trace_seq += 1
        label = agent.name or f"agent{agent.id}"
        self.trace.write(f"{self._trace_seq}\t{label}\t{event!r}\t{rule_idx}\t{outcome}\n")

    # -- the fixpoint driver -------------------------------------------------------

    def run_to_fixpoint(self) -> bool:
        """Drain the activation queue.  For each woken agent, re-test
        the suspending rule's guard: run its action and stay suspended
        on success; on guard failure, fall through to the later rules
        just as at generation.  False means constraint inconsistency
        and the caller must backtrack."""
        queue = self.queue
        take = self._take
        pending = self.pending
        coalescing = self.coalescing
        trace = self.trace
        while queue:
            item = take()
            agent, event = item
            if coalescing and agent.coalesce and event.kind != DOM:
                key = (agent.id, event.var)
                if pending.get(key) is not item:
                    continue  # a bound superseded by an ins
                del pending[key]
            idx = agent.rule
            if idx == END:
                continue
            rule = agent.rules[idx]
            guard = rule.guard
            if guard is None or guard():
                self.activations += 1
                if not rule.action(event):
                    if trace is not None:
                        self._trace_line(agent, event, idx, "fail")
                    return False
                if trace is not None:
                    self._trace_line(agent, event, idx, "ok")
            elif not self._select(agent, idx + 1, generating=False, event=event):
                return False
        return True

    # -- search support -----------------------------------------------------------

    def push_choice_point(self):
        """Create a choice point.  Per the execution contract no choice
        point may be created while activations are pending."""
        if self.queue:
            raise InvariantError("choice point requested with pending activations")
        return self.store.push_choice_point()

    def backtrack_to(self, cp) -> None:
        self.store.backtrack_to(cp)


_GENERATED_EVENT = Event(GENERATED, None, None)
