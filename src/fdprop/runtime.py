"""Event-driven propagator runtime.

Agents are suspended computations attached to variables.  Each agent
carries an ordered list of guarded rules; the first rule whose guard
holds is selected, in textual order.  A rule with a watch set suspends
the agent on those events, and may ask to run its action each time the
agent enters it; a rule without one (a commitment rule) runs its body
and ends the agent.  An agent's only mutable state is the
index of the action rule it sleeps on, or END once it has committed.
The runtime alone owns suspension and its undo: suspending appends the
agent to the watcher lists of its rule's watch set, and every change of
the index is trailed, so a backtrack pops those appends and restores
the index.  An event wakes every agent not at END that watched it when
it was posted, and is then erased: agents that suspend later never see
it.

Scheduling is first-generated-first-served.  The store posts an event
only to a non-empty watcher list, and a post queues one record [event,
watcher list, n], n being the list's length at post time; the global
queue is drained FIFO.  Taking a record expands it: the agents at the
first n positions of the list wake in ascending creation order.  A
list only grows within a fixpoint, so an agent that suspends on it
after the post never sees the event.  Monotone propagators must not
rely on that order; a test-only queue policy switch (lifo / random,
over records) exists to certify they do not.  A failed fixpoint leaves
records queued; the backtrack that follows discards them.

An ins or bound event carries no payload: the agents it wakes read the
variable's current domain.  So each variable owns its one ins record
and its one bound record (``Variable.records``), made with the
variable, and a post of either allocates nothing.  Such a record is
queued iff its n is non-zero: a post sets n to the list's current
length and queues the record only if it was not queued, so a bound
post while the record waits untaken just extends it.  Taking a record,
and discarding the queue at a backtrack, zero n, so the next post
queues it again.  An ins is the last event a variable posts before a
backtrack, so an ins record is never extended.  Only a dom post makes
a record, with a new event for its value: distinct dom payloads are
never merged.

A runtime may have a deadline.  ``run_to_fixpoint`` reads the clock
once every ``DEADLINE_EVERY`` records it takes and raises
``LimitReached`` once the deadline has passed: a limit, not a failure.
The queue is left as a failed fixpoint leaves it.  A rule whose entry
can run long outside a fixpoint, such as the arc pair rule's revise
at posting, reads it with ``check_deadline``, too.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Callable, Optional, Sequence

from .store import DOM, GENERATED, Event, InvariantError, Store


END = -1  # Agent.rule before the first suspension and after commitment

# Records taken between two clock reads of a fixpoint under a deadline.
DEADLINE_EVERY = 256


class LimitReached(Exception):
    """A limit stopped the run: not an inconsistency.  Its str names
    the limit."""


def check_deadline(deadline: Optional[float]) -> None:
    """Raise ``LimitReached`` once ``time.perf_counter()`` is past
    ``deadline``; None is no deadline."""
    if deadline is not None and time.perf_counter() > deadline:
        raise LimitReached("time limit")


class Rule:
    """One guarded rule of an agent.

    guard: nullary predicate, side-effect free (None = always true).
    watch: tuple of (event kind, var id) to suspend on; None makes this
    a commitment rule.  run_on_generated runs the action, with the
    generated event, each time the agent enters the rule: at generation,
    or when a guard that fails on a wake falls through to it.  action:
    callable(event) -> bool, False signalling constraint inconsistency.
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

    ``rules`` is the caller's sequence, kept as given: it must not
    change once spawned.  ``rule`` is the index of the action rule the
    agent sleeps on.  It is END before the first suspension and after a
    commitment rule has run; END is absorbing.  The agent stays on the
    watcher lists of every rule it has slept on; a wake is ignored once
    it is at END.
    """

    __slots__ = ("id", "rules", "rule", "name")

    def __init__(self, aid: int, rules: Sequence[Rule], name: str):
        self.id = aid
        self.rules = rules
        self.rule = END
        self.name = name

    def __repr__(self):
        state = "end" if self.rule == END else f"rule {self.rule}"
        return f"Agent#{self.id}({self.name or 'anon'},{state})"


class Runtime:
    """Agent table, activation queue, trail, and the fixpoint driver.

    Created around a store; installs itself as the store's event sink.
    Its choice point is the store's plus its own marks, so that a
    backtrack restores both.

    ``queue`` holds the records [event, watchers, n] of the posted
    events: a variable's own ins and bound records (see the module
    docstring), and a new record per dom post.  ``clock`` counts the
    records queued.  ``walked`` sums the watcher-list lengths of the
    records taken: the watcher entries a fixpoint walks, ended agents
    included.  A choice point is only made with an empty queue, so
    backtracking empties it and zeroes the n of each record it held,
    which marks the record unqueued.  The trail holds
    (agent, old rule) for every change of an agent's rule, a new agent's
    first suspension included; a backtrack undoes those, popping the
    agent from the watcher lists of the rule it leaves, and drops the
    agents created since.  ``deadline`` is None or the
    ``time.perf_counter()`` reading past which ``run_to_fixpoint``
    raises ``LimitReached``.
    """

    def __init__(self, store: Store, *, queue_policy: str = "fifo",
                 queue_seed: Optional[int] = None, trace=None):
        self.store = store
        self.agents: list[Agent] = []
        self.queue: deque[list] = deque()
        self.clock = 0
        self._take = self._taker(queue_policy, queue_seed)
        self.trace = trace
        self.activations = 0
        self.walked = 0
        self.deadline: Optional[float] = None
        self._trace_seq = 0
        self._trail: list[tuple[Agent, int]] = []
        self._vars = store.vars
        store.event_sink = self._post_kind

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

    # -- undo -------------------------------------------------------------------

    def _restore(self, marks) -> None:
        """Undo the trail down to marks (agent count, trail length).
        Every watcher append has a trail entry, so the pops are LIFO on
        each list."""
        agent_count, trail_mark = marks
        trail = self._trail
        vars_ = self._vars
        while len(trail) > trail_mark:
            agent, rule = trail.pop()
            if agent.rule != END:
                for kind, var in agent.rules[agent.rule].watch:
                    vars_[var].watchers[kind].pop()
            agent.rule = rule
        del self.agents[agent_count:]
        queue = self.queue
        for record in queue:
            record[2] = 0
        queue.clear()

    # -- posting and waking ----------------------------------------------------

    def _post_kind(self, kind: int, var: int, value: Optional[int]) -> None:
        """Store-facing sink, called only for a non-empty watcher list:
        queue the event with that list and its length, so that only the
        agents sleeping on it now wake when it is taken.  An ins or
        bound post sets the length of the variable's own record and
        queues it unless it is queued already; only a dom post, whose
        event carries its value, makes a record."""
        v = self._vars[var]
        if kind == DOM:
            watchers = v.watchers[DOM]
            record = [Event(DOM, var, value), watchers, len(watchers)]
        else:
            record = v.records[kind]
            queued = record[2]
            record[2] = len(record[1])
            if queued:
                return
        self.clock += 1
        self.queue.append(record)

    # -- spawning ---------------------------------------------------------------

    def spawn(self, rules: Sequence[Rule], *, coalesce: bool = True,
              name: str = "") -> Optional[Agent]:
        """Create an agent and run rule selection.  Returns the agent,
        or None when the agent fails (no applicable rule, or its
        generation-time action fails).  ``coalesce`` is ignored: bound
        posts are merged per variable in the queue, for every agent.
        It stays only because perfbench's tracer passes it."""
        agent = Agent(len(self.agents), rules, name)
        self.agents.append(agent)
        if self._select(agent, 0, _GENERATED_EVENT):
            return agent
        return None

    def _select(self, agent: Agent, start: int, event: Event) -> bool:
        """Find the first applicable rule from ``start`` onward; ``event``
        is _GENERATED_EVENT at generation, else the wake whose guard
        failed.  An action rule suspends the agent and, if it asks to
        (run_on_generated), runs its action with _GENERATED_EVENT, on
        this entry only; a commitment rule runs its action with
        ``event`` and, on success, ends the agent.  False = the agent
        fails.  A commitment at generation leaves the rule at END and
        needs no trail entry."""
        rules = agent.rules
        for idx in range(start, len(rules)):
            rule = rules[idx]
            guard = rule.guard
            if guard is not None and not guard():
                continue
            watch = rule.watch
            if watch is not None:
                # action rule: suspend (register first so the agent hears
                # the events its own entry-time action posts)
                self._trail.append((agent, agent.rule))
                agent.rule = idx
                vars_ = self._vars
                for kind, var in watch:
                    vars_[var].watchers[kind].append(agent)
                if not rule.run_on_generated:
                    return True
                event = _GENERATED_EVENT
            self.activations += 1
            ok = rule.action(event)
            if self.trace is not None:
                outcome = "fail" if not ok else "end" if watch is None else "ok"
                self._trace_line(agent, event, idx, outcome)
            if ok and watch is None and agent.rule != END:
                self._trail.append((agent, agent.rule))
                agent.rule = END
            return ok
        if self.trace is not None:
            self._trace_line(agent, event, -1, "fail")
        return False

    def _trace_line(self, agent: Agent, event: Event, rule_idx: int,
                    outcome: str) -> None:
        """Write one activation line; callers test ``self.trace`` first."""
        self._trace_seq += 1
        label = agent.name or f"agent{agent.id}"
        self.trace.write(f"{self._trace_seq}\t{label}\t{event!r}\t{rule_idx}\t{outcome}\n")

    # -- the fixpoint driver -------------------------------------------------------

    def run_to_fixpoint(self) -> bool:
        """Drain the activation queue.  Each record wakes the agents that
        slept on its event when it was posted; taking it zeroes its n,
        which marks it unqueued.  For each agent, re-test the
        suspending rule's guard: run its action and stay suspended on
        success; on guard failure, fall through to the later rules just
        as at generation.  False means constraint inconsistency and the
        caller must backtrack.  Past the deadline it raises
        ``LimitReached``; only the clock is read, so no count moves."""
        queue = self.queue
        take = self._take
        trace = self.trace
        deadline = self.deadline
        countdown = DEADLINE_EVERY
        while queue:
            event, watchers, n = record = take()
            record[2] = 0
            if deadline is not None:
                countdown -= 1
                if not countdown:
                    check_deadline(deadline)
                    countdown = DEADLINE_EVERY
            self.walked += n
            for agent in watchers[:n]:
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
                elif not self._select(agent, idx + 1, event):
                    return False
        return True

    # -- search support -----------------------------------------------------------

    def push_choice_point(self):
        """Create a choice point: the store's, and the runtime's marks.
        Per the execution contract no choice point may be created while
        activations are pending."""
        if self.queue:
            raise InvariantError("choice point requested with pending activations")
        return self.store.push_choice_point(), (len(self.agents), len(self._trail))

    def backtrack_to(self, cp) -> None:
        """Restore the store and the runtime to the instant cp was made."""
        store_cp, marks = cp
        self.store.backtrack_to(store_cp)
        self._restore(marks)


_GENERATED_EVENT = Event(GENERATED, None, None)
