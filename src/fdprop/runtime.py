"""Event-driven propagator runtime.

Agents are suspended computations attached to variables.  Each agent
carries an ordered list of guarded rules; the first rule whose guard
holds is selected, in textual order.  A rule with a watch set suspends
the agent on those events; a rule without one (a commitment rule) runs
its body and ends the agent.  Posting an event wakes every agent
currently sleeping on it and then erases the event: agents spawned
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

import enum
import random
from collections import deque
from typing import Callable, Optional, Sequence

from .store import BOUND, DOM, EVENT_NAMES, GENERATED, INS, InvariantError, Store


class AgentState(enum.IntEnum):
    START = 0
    SLEEP = 1
    WOKEN = 2
    END = 3


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
    """A suspended propagator with its lifecycle state.

    State transitions: START -> SLEEP | END | fail; SLEEP -> WOKEN;
    WOKEN -> SLEEP | END | fail.  END is absorbing.  sleeping_on is the
    index of the action rule the agent currently suspends on;
    registered holds the rule indexes whose watches have been pushed
    onto suspension lists (registration is stable: re-suspending on the
    same rule does not re-register).
    """

    __slots__ = ("id", "state", "rules", "sleeping_on", "registered",
                 "coalesce", "name", "stamp")

    def __init__(self, aid: int, rules: Sequence[Rule], coalesce: bool, name: str):
        self.id = aid
        self.state = AgentState.START
        self.rules = list(rules)
        self.sleeping_on = -1
        self.registered: tuple[int, ...] = ()
        self.coalesce = coalesce
        self.name = name
        self.stamp = 0

    def __repr__(self):
        return f"Agent#{self.id}({self.name or 'anon'},{self.state.name})"


class Runtime:
    """Agent table, activation queue, and the fixpoint driver.

    Created around a store; installs itself as the store's event sink
    and restore hook so that choice points snapshot both together.

    ``queue`` holds pending (agent, event) items.  ``pending`` maps
    (agent id, var) to the one live ins/bound item of a coalescing
    agent; an item that is no longer the map's entry for its key was
    superseded and is skipped when taken.  A choice point is only made
    with an empty queue, so backtracking empties both.
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
        self._agent_trail: list[tuple] = []
        self.transition_hook: Optional[Callable[[Agent, AgentState, AgentState], None]] = None
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

    # -- state bookkeeping ---------------------------------------------------

    def _save_agent(self, agent: Agent) -> None:
        if agent.stamp != self.store.current_stamp:
            self._agent_trail.append(
                (agent, agent.state, agent.sleeping_on, agent.registered, agent.stamp))
            agent.stamp = self.store.current_stamp

    def _set_state(self, agent: Agent, state: AgentState) -> None:
        if self.transition_hook is not None:
            self.transition_hook(agent, agent.state, state)
        self._save_agent(agent)
        agent.state = state

    def _mark(self):
        return (len(self.agents), len(self._agent_trail))

    def _restore(self, marks) -> None:
        agent_count, trail_mark = marks
        trail = self._agent_trail
        while len(trail) > trail_mark:
            agent, state, sleeping_on, registered, stamp = trail.pop()
            agent.state = state
            agent.sleeping_on = sleeping_on
            agent.registered = registered
            agent.stamp = stamp
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
            state = agent.state
            if state == AgentState.END:
                continue
            item = (agent, event)
            if coalescing and agent.coalesce:
                key = (aid, var)
                old = pending.get(key)
                if old is not None and (kind == BOUND or old[1].kind == INS):
                    continue  # duplicate bound or ins, or bound shadowed by ins
                pending[key] = item  # new, or an ins superseding a bound
            push(item)
            if state == AgentState.SLEEP:
                self._set_state(agent, AgentState.WOKEN)

    # -- spawning ---------------------------------------------------------------

    def spawn(self, rules: Sequence[Rule], *, coalesce: bool = True,
              name: str = "") -> Optional[Agent]:
        """Create an agent and run rule selection.  Returns the agent,
        or None when the agent fails (no applicable rule, or its
        generation-time action fails).  coalesce marks the agent as a
        constraint propagator whose redundant wakes may be suppressed;
        general agents should pass False to receive every event."""
        agent = Agent(len(self.agents), rules, coalesce, name)
        agent.stamp = self.store.current_stamp
        self.agents.append(agent)
        if self._select(agent, 0, generating=True):
            return agent
        return None

    def _register(self, agent: Agent, idx: int) -> None:
        if idx in agent.registered:
            return
        self._save_agent(agent)
        agent.registered = agent.registered + (idx,)
        store = self.store
        for kind, var in agent.rules[idx].watch:
            lst = store.vars[var].watchers(kind)
            lst.append(agent.id)
            store.note_watcher_push(lst)

    def _select(self, agent: Agent, start: int, generating: bool,
                event: Optional[Event] = None) -> bool:
        """Find the first applicable rule from ``start`` onward and
        commit/suspend accordingly.  False = the agent fails."""
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
                if ok:
                    self._set_state(agent, AgentState.END)
                return ok
            # action rule: suspend (register first so the agent hears
            # the events its own generation-time action posts)
            self._register(agent, idx)
            self._set_state(agent, AgentState.SLEEP)
            agent.sleeping_on = idx
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
        the suspending rule's guard: run its action and re-suspend on
        success; on guard failure, fall through to the later rules just
        as at generation.  False means constraint inconsistency and the
        caller must backtrack."""
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
            state = agent.state
            if state == AgentState.END:
                continue
            if state == AgentState.SLEEP:
                # item queued while the agent was generating; the wake
                # happens now
                self._set_state(agent, AgentState.WOKEN)
            idx = agent.sleeping_on
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
                self._set_state(agent, AgentState.SLEEP)
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
