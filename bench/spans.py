"""Per-layer spans and counts for pursuitrl, recorded from outside the package.

A :class:`Tracer` wraps public functions of the package's modules and
aggregates one span per call: call count, total time and self time (the
span's duration minus the part its child spans cover). Spans are kept as
running totals per name, not as a list, because the hot functions are
called millions of times in a benchmark run.

Several functions are bound into their callers with ``from ... import``,
so each wrapper is installed at the name the caller looks up:
``hmrl.epsilon_greedy`` rather than ``q_learning.epsilon_greedy``, and so
on. The span keeps the name of the module that defines the function,
which is the layer name reported.

The tracer also gathers deterministic counts at the same boundaries:
blocked moves, rule fallbacks, reinforced trace steps, table rows and
sizes. They must repeat exactly for identical inputs.
"""

from __future__ import annotations

import functools
import os
import time

# (span name, module the caller looks it up in, attribute path there)
SPAN_SITES = (
    ("experiment.run_training", "experiment", "run_training"),
    ("env.new_world", "env", "new_world"),
    ("env.step", "env", "step"),
    ("hmrl.policy_step", "hmrl", "HunterAgent.policy_step"),
    ("hmrl.select_target", "hmrl", "select_target"),
    ("q_learning.epsilon_greedy", "hmrl", "epsilon_greedy"),
    ("hmrl.deliver_rewards", "experiment", "deliver_rewards"),
    ("hmrl.observe", "hmrl", "HunterAgent.observe"),
    ("q_learning.q_update", "hmrl", "q_update"),
    ("hmrl.reinforce_upper", "hmrl", "reinforce_upper"),
    ("knowledge.rule_policy_act", "experiment", "rule_policy_act"),
    ("knowledge.load_instances", "knowledge", "load_instances"),
    ("knowledge.induce_tree", "knowledge", "induce_tree"),
    ("knowledge.extract_rules", "knowledge", "extract_rules"),
    ("experiment.export_report", "experiment", "export_report"),
    ("experiment.save_learned_tables", "experiment", "save_learned_tables"),
    ("experiment.log_instances", "experiment", "log_instances"),
    ("profit_sharing.save_weights", "profit_sharing", "save_weights"),
    ("tableio.save_table", "profit_sharing", "save_table"),
    ("tableio.save_table", "q_learning", "save_table"),
)

# Counted but not timed: called too often, from inside reinforce_upper,
# for a timer to add nothing but overhead.
COUNT_SITES = (
    ("profit_sharing.WeightTable.add", "profit_sharing", "WeightTable.add"),
)

# Spans of the knowledge layer record calls only on the rule pipeline.
KNOWLEDGE_SPANS = frozenset(name for name, _, _ in SPAN_SITES
                            if name.startswith("knowledge."))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Aggregated spans and counts over every command it was installed for."""

    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        self._child_time = [0.0]

    def install(self, modules: dict) -> None:
        """Wrap the span and count sites in freshly imported ``modules``."""
        hooks = self._hooks()
        for name, module, path in SPAN_SITES:
            owner, attr = _resolve(modules[module], path)
            before, after = hooks.get(name, (None, None))
            setattr(owner, attr, self._timed(name, getattr(owner, attr), before, after))
        for name, module, path in COUNT_SITES:
            owner, attr = _resolve(modules[module], path)
            setattr(owner, attr, self._counted(name, getattr(owner, attr)))

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def self_time(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def total_self_time(self) -> float:
        return sum(stat[2] for stat in self.stats.values())

    def _count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _timed(self, name, fn, before=None, after=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        child_time = self._child_time
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                child_time[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
            if after is not None:
                after(result, args, kwargs)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _counted(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _hooks(self) -> dict:
        """Per-span ``(before, after)`` hooks that gather the counts."""
        count = self._count

        def count_fallbacks(args, kwargs):
            fallback = kwargs["fallback"]

            def counted_fallback(*inner):
                count("knowledge.rule_policy_act.fallbacks", 1)
                return fallback(*inner)

            return args, {**kwargs, "fallback": counted_fallback}

        def count_trace(args, kwargs):
            count("hmrl.reinforce_upper.trace_steps", len(args[1]))
            return args, kwargs

        def count_rows(args, kwargs):
            count("tableio.save_table.rows", len(args[1]))
            return args, kwargs

        def count_bytes(result, args, kwargs):
            count("tableio.save_table.bytes", os.path.getsize(args[0]))

        def count_tables(result, args, kwargs):
            count("hmrl.upper_entries", sum(len(agent.upper) for agent in result.agents))
            count("q_learning.q_entries", sum(len(agent.q.values) for agent in result.agents))

        return {
            "env.step": (None, lambda result, args, kwargs: count(
                "env.step.blocked_moves", len(result.blocked_moves))),
            "knowledge.rule_policy_act": (count_fallbacks, None),
            "hmrl.reinforce_upper": (count_trace, None),
            "tableio.save_table": (count_rows, count_bytes),
            "experiment.run_training": (None, count_tables),
            "knowledge.load_instances": (None, lambda result, args, kwargs: count(
                "knowledge.instances", len(result))),
            "knowledge.extract_rules": (None, lambda result, args, kwargs: count(
                "knowledge.rules", len(result))),
        }

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as ``(value, unit)``."""
        return {name: (value(self), unit) for name, unit, value in _LAYER_METRICS}


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _calls(span):
    return lambda tracer: tracer.calls(span)


def _self_s(span):
    return lambda tracer: tracer.self_time(span)


def _count(name):
    return lambda tracer: tracer.counts.get(name, 0)


# Per-layer metrics: (name, unit, value from the tracer). Every value is
# a total over the traced commands of one run.
_LAYER_METRICS = (
    ("hmrl.select_target.calls", "count", _calls("hmrl.select_target")),
    ("hmrl.select_target.self_s", "s", _self_s("hmrl.select_target")),
    ("hmrl.policy_step.self_s", "s", _self_s("hmrl.policy_step")),
    ("env.step.calls", "count", _calls("env.step")),
    ("env.step.self_s", "s", _self_s("env.step")),
    ("env.step.blocked_moves", "count", _count("env.step.blocked_moves")),
    ("env.step.blocked_per_step", "moves/step", lambda t: _ratio(
        t.counts.get("env.step.blocked_moves", 0), t.calls("env.step"))),
    ("env.new_world.self_s", "s", _self_s("env.new_world")),
    ("q_learning.epsilon_greedy.self_s", "s", _self_s("q_learning.epsilon_greedy")),
    ("q_learning.q_update.calls", "count", _calls("q_learning.q_update")),
    ("q_learning.q_update.self_s", "s", _self_s("q_learning.q_update")),
    ("hmrl.observe.self_s", "s", _self_s("hmrl.observe")),
    ("hmrl.deliver_rewards.self_s", "s", _self_s("hmrl.deliver_rewards")),
    ("knowledge.rule_policy_act.calls", "count", _calls("knowledge.rule_policy_act")),
    ("knowledge.rule_policy_act.self_s", "s", _self_s("knowledge.rule_policy_act")),
    ("knowledge.rule_policy_act.fallbacks", "count",
     _count("knowledge.rule_policy_act.fallbacks")),
    ("knowledge.rule_policy_act.fallback_ratio", "ratio", lambda t: _ratio(
        t.counts.get("knowledge.rule_policy_act.fallbacks", 0),
        t.calls("knowledge.rule_policy_act"))),
    ("knowledge.load_instances.self_s", "s", _self_s("knowledge.load_instances")),
    ("knowledge.induce_tree.self_s", "s", _self_s("knowledge.induce_tree")),
    ("knowledge.extract_rules.self_s", "s", _self_s("knowledge.extract_rules")),
    ("knowledge.instances", "count", _count("knowledge.instances")),
    ("knowledge.rules", "count", _count("knowledge.rules")),
    ("hmrl.reinforce_upper.calls", "count", _calls("hmrl.reinforce_upper")),
    ("hmrl.reinforce_upper.self_s", "s", _self_s("hmrl.reinforce_upper")),
    ("hmrl.reinforce_upper.trace_steps", "count",
     _count("hmrl.reinforce_upper.trace_steps")),
    ("profit_sharing.WeightTable.add.calls", "count",
     _calls("profit_sharing.WeightTable.add")),
    ("experiment.export_report.self_s", "s", _self_s("experiment.export_report")),
    ("experiment.save_learned_tables.self_s", "s",
     _self_s("experiment.save_learned_tables")),
    ("experiment.log_instances.self_s", "s", _self_s("experiment.log_instances")),
    ("profit_sharing.save_weights.self_s", "s", _self_s("profit_sharing.save_weights")),
    ("tableio.save_table.self_s", "s", _self_s("tableio.save_table")),
    ("tableio.save_table.rows", "count", _count("tableio.save_table.rows")),
    ("tableio.save_table.bytes", "B", _count("tableio.save_table.bytes")),
    ("hmrl.upper_entries", "count", _count("hmrl.upper_entries")),
    ("q_learning.q_entries", "count", _count("q_learning.q_entries")),
    ("experiment.run_training.self_s", "s", _self_s("experiment.run_training")),
)
