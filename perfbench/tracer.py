"""Span tracing around the engine's layer entry points.

The tracer wraps each layer's public entry points from outside the
engine (module and class attributes are swapped on ``install`` and put
back on ``uninstall``).  Every wrapped call is a span with a name, a
start, an end and a parent (the span open when it started).  Spans are
folded into per-name aggregates as they close: calls, inclusive time,
and self time, which is the span's duration minus the part its child
spans cover.  Nothing per call is kept, so a solve with millions of
spans runs in constant memory.

The root span covers the whole solve, so its self time is the
un-spanned remainder and all self times add up to its duration.

Propagator bodies are attributed to agent-name families: the wrapped
``Runtime.spawn`` wraps each rule's guard and action before the agent
is created.
"""

from __future__ import annotations

import re
import time
from collections import Counter, defaultdict

import fdprop.alldistinct as fd_alldistinct
import fdprop.model as fd_model
import fdprop.search as fd_search
import fdprop.store as fd_store
from fdprop.domain import DeltaKind
from fdprop.runtime import Rule, Runtime
from fdprop.store import Store

ROOT = "solve"

# Agent-name family -> layer.  lin<k> and lin<k>_hybrid pool every k.
FAMILIES = {
    "neq": "linear",
    "eq_ac": "linear",
    "eq_ic": "linear",
    "eq_fwd": "linear",
    "lin_hybrid": "linear",
    "lin": "linear",
    "outof": "alldistinct",
    "outof_dom": "alldistinct",
}

LAYERS = ("model", "domain", "store", "runtime", "linear", "alldistinct", "search")

_ARITY = re.compile(r"^lin\d+")


def family_of(agent_name: str) -> str:
    """'neq(_1,_2,+0)' -> 'linear.neq', 'lin5_hybrid' -> 'linear.lin_hybrid'."""
    base = _ARITY.sub("lin", agent_name.split("(", 1)[0])
    if base not in FAMILIES:
        raise ValueError(f"agent {agent_name!r} belongs to no known family")
    return f"{FAMILIES[base]}.{base}"


class Tracer:
    """Span aggregates plus the counts taken at the same boundaries."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list[float]] = []
        self._saved: list[tuple] = []
        self.phase = "build"
        self.spawns: Counter = Counter()
        self.events = {fd_store.INS: 0, fd_store.BOUND: 0, fd_store.DOM: 0}
        self.domain_noops = 0
        self.narrowed = 0
        self.fixpoint_fails = 0
        self.max_depth = 0
        self.family_fails: Counter = Counter()
        self.family_prunes: Counter = Counter()

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap fn so that each call is a span called name."""
        stack = self._stack
        calls = self.calls
        total_s = self.total_s
        self_s = self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def run(self, fn, *args):
        """Call fn inside the root span."""
        if self._stack:
            raise RuntimeError("the root span must be outermost")
        return self.span(ROOT, fn)(*args)

    # -- installing the wrappers ------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        """Swap the wrappers in.  Must happen before ``build``, because
        a runtime binds its event sink and restore hook when created."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        span = self.span

        def domain_op(name):
            timed = span(name, getattr(fd_store, name.split(".")[1]))

            def op(*args):
                result = timed(*args)
                if result[1].kind == DeltaKind.UNCHANGED:
                    self.domain_noops += 1
                return result
            return op

        self._patch(fd_store, "exclude_value", domain_op("domain.exclude_value"))
        self._patch(fd_store, "intersect_range", domain_op("domain.intersect_range"))
        self._patch(fd_alldistinct, "is_subset_of",
                    span("domain.is_subset_of", fd_alldistinct.is_subset_of))

        def narrowing(name):
            timed = span(name, getattr(Store, name.split(".")[1]))

            def op(store, x, *args):
                var = store.vars[x]
                before = var.domain
                result = timed(store, x, *args)
                if var.domain is not before:
                    self.narrowed += 1
                return result
            return op

        self._patch(Store, "exclude", narrowing("store.exclude"))
        self._patch(Store, "intersect", narrowing("store.intersect"))
        self._patch(Store, "bind", span("store.bind", Store.bind))
        self._patch(Store, "backtrack_to", span("store.backtrack_to", Store.backtrack_to))
        timed_push = span("store.push_choice_point", Store.push_choice_point)

        def push_choice_point(store):
            cp = timed_push(store)
            self.max_depth = max(self.max_depth, store.depth())
            return cp
        self._patch(Store, "push_choice_point", push_choice_point)

        timed_post = span("runtime.post", Runtime._post_kind)
        events = self.events

        def post(rt, kind, var, value):
            events[kind] += 1
            return timed_post(rt, kind, var, value)
        self._patch(Runtime, "_post_kind", post)
        self._patch(Runtime, "_restore", span("runtime.restore", Runtime._restore))
        timed_fixpoint = span("runtime.fixpoint", Runtime.run_to_fixpoint)

        def run_to_fixpoint(rt):
            ok = timed_fixpoint(rt)
            if not ok:
                self.fixpoint_fails += 1
            return ok
        self._patch(Runtime, "run_to_fixpoint", run_to_fixpoint)

        original_spawn = Runtime.spawn

        def wrap_rules_and_spawn(rt, rules, coalesce, name):
            family = family_of(name)
            return original_spawn(rt, [self._wrap_rule(family, r) for r in rules],
                                  coalesce=coalesce, name=name)
        timed_spawn = span("runtime.spawn", wrap_rules_and_spawn)

        def spawn(rt, rules, *, coalesce=True, name=""):
            self.spawns[self.phase] += 1
            return timed_spawn(rt, rules, coalesce, name)
        self._patch(Runtime, "spawn", spawn)

        self._patch(fd_model, "parse_model", span("model.parse", fd_model.parse_model))
        timed_build = span("model.build", fd_model.build)

        def build(*args, **kwargs):
            self.phase = "build"
            try:
                return timed_build(*args, **kwargs)
            finally:
                self.phase = "root"
        self._patch(fd_model, "build", build)
        timed_label = span("search.label", fd_search.label)

        def label(*args, **kwargs):
            self.phase = "search"
            return timed_label(*args, **kwargs)
        self._patch(fd_search, "label", label)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap_rule(self, family: str, rule: Rule) -> Rule:
        guard = rule.guard
        if guard is not None:
            guard = self.span(family + ".guard", guard)
        timed = self.span(family + ".action", rule.action)

        def action(event):
            before = self.narrowed
            ok = timed(event)
            if not ok:
                self.family_fails[family] += 1
            if self.narrowed != before:
                self.family_prunes[family] += 1
            return ok

        return Rule(guard, rule.watch, action, rule.run_on_generated)

    # -- derived metrics -----------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, secs in self.self_s.items():
            if name != ROOT:
                out[name.split(".", 1)[0]] += secs
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer figures derived from the spans and counts."""
        calls = self.calls
        self_s = self.self_s
        total_s = self.total_s

        def ratio(num, den):
            return num / den if den else 0.0

        m: dict[str, float] = {}
        n_events = sum(self.events.values())
        activations = sum(calls[f + ".action"] for f in self.families())
        m["runtime.post.self_s"] = self_s["runtime.post"]
        m["runtime.post.us_per_event"] = 1e6 * ratio(total_s["runtime.post"], n_events)
        for kind, label in ((fd_store.INS, "ins"), (fd_store.BOUND, "bound"),
                            (fd_store.DOM, "dom")):
            m[f"runtime.events.{label}"] = self.events[kind]
        m["runtime.fixpoint.calls"] = calls["runtime.fixpoint"]
        m["runtime.fixpoint.self_s"] = self_s["runtime.fixpoint"]
        m["runtime.fixpoint.fail_ratio"] = ratio(self.fixpoint_fails,
                                                 calls["runtime.fixpoint"])
        m["runtime.activations"] = activations
        m["runtime.activations_per_event"] = ratio(activations, n_events)
        for phase in ("build", "root", "search"):
            m[f"runtime.spawn.{phase}_calls"] = self.spawns[phase]
        m["runtime.spawn.self_s"] = self_s["runtime.spawn"]
        m["runtime.restore.self_s"] = self_s["runtime.restore"]

        for family in self.families():
            n = calls[family + ".action"]
            m[f"{family}.calls"] = n
            m[f"{family}.self_s"] = self_s[family + ".action"] + self_s[family + ".guard"]
            m[f"{family}.fail"] = self.family_fails[family]
            m[f"{family}.prune_ratio"] = ratio(self.family_prunes[family], n)

        for op in ("exclude_value", "intersect_range", "is_subset_of"):
            m[f"domain.{op}.calls"] = calls["domain." + op]
            m[f"domain.{op}.self_s"] = self_s["domain." + op]
        for op in ("exclude_value", "intersect_range"):
            m[f"domain.{op}.us_per_call"] = 1e6 * ratio(self_s["domain." + op],
                                                       calls["domain." + op])
        m["domain.noop_ratio"] = ratio(
            self.domain_noops,
            calls["domain.exclude_value"] + calls["domain.intersect_range"])

        tighten = ("store.exclude", "store.intersect", "store.bind")
        for name in tighten:
            m[name + ".calls"] = calls[name]
        tighten_s = sum(self_s[name] for name in tighten)
        m["store.tighten.self_s"] = tighten_s
        m["store.tighten.us_per_call"] = 1e6 * ratio(
            tighten_s, sum(calls[name] for name in tighten))
        m["store.narrow_ratio"] = ratio(
            self.narrowed, calls["store.exclude"] + calls["store.intersect"])
        m["store.push_choice_point.calls"] = calls["store.push_choice_point"]
        m["store.backtrack_to.calls"] = calls["store.backtrack_to"]
        m["store.backtrack_to.self_s"] = self_s["store.backtrack_to"]
        m["store.backtrack_to.us_per_cp"] = 1e6 * ratio(
            total_s["store.backtrack_to"], calls["store.push_choice_point"])

        m["search.label.self_s"] = self_s["search.label"]
        m["search.choice_points"] = calls["store.push_choice_point"]
        m["search.max_depth"] = self.max_depth

        for layer, secs in self.layer_self_s().items():
            m[layer + ".self_s"] = secs
        m["trace.unspanned_s"] = self_s[ROOT]
        m["trace.wall_s"] = total_s[ROOT]
        return m

    @staticmethod
    def families() -> list[str]:
        return [f"{layer}.{base}" for base, layer in FAMILIES.items()]
