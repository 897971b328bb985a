"""Traced runs: spans and counters recorded around calls into each layer.

Only benchmark code changes here: a traced run swaps a public name in the
namespace that calls it (for example `agentrec.runtime.step_agent`, the name
`run_episode` calls) for a wrapper, and `uninstall` puts every original back.
Untraced runs install nothing.

A span records name, start, end, parent span and op id, and is kept in
memory until `write_spans`. Hot leaf calls (`embed_text`, `cosine`,
`item_by_id`, ...) only bump a count and, where a metric needs it, a time
total, so tracing them stays cheap.
"""

import json
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index, op id]
        self.stack = []
        self.op = "setup"
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self._undo = []

    # recording ------------------------------------------------------------

    def add(self, name, amount=1):
        self.counts[name] += amount

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf(), 0.0, parent, self.op])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = perf()

    def start_timed_phase(self):
        """Counters cover timed ops only; spans keep set-up calls too."""
        self.counts.clear()
        self.times.clear()

    # wrappers -------------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        original = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, original))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, after=None):
        """Wrap owner.attr in a span; `after(tracer, args, kwargs, result)` may count."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr, name, timed=False):
        """Wrap owner.attr in a call counter, plus a time total if `timed`."""
        fn = getattr(owner, attr)
        counts, times = self.counts, self.times

        if not timed:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                started = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    times[name] += perf() - started
                    counts[name] += 1

        self._patch(owner, attr, wrapper)

    def wrap_tools(self, tool_kinds):
        """Span every tool handler the blueprint factories build from now on."""
        original = dict(tool_kinds)
        for kind, factory in original.items():
            tool_kinds[kind] = _traced_tool_factory(self, kind, factory)
        self._undo.append(lambda: tool_kinds.update(original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # output ---------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def span_totals(self, timed_only):
        """name -> [calls, total seconds, total self seconds].

        Self time is a span's duration minus the time its child spans cover.
        With `timed_only`, spans recorded during set-up are left out.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = {}
        for (name, start, end, parent, op), inner in zip(self.spans, child_time):
            if timed_only and not isinstance(op, int):
                continue
            row = totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return totals


def _count_messages(tracer, args, kwargs, result):
    tracer.add("runtime.messages", len(result.trace))
    tracer.add("runtime.episodes")


def _count_steps(tracer, args, kwargs, result):
    tracer.add("simulation.steps", sum(len(trace.steps) for trace in result))
    tracer.add("simulation.jobs")


def _count_trials(tracer, args, kwargs, result):
    tracer.add("reliability.trials", kwargs["trials"])


def _count_rounds(tracer, args, kwargs, result):
    tracer.add("pipelines.explain_rounds", result[1])
    tracer.add("pipelines.explain_accepts")


def install(tracer, agentrec):
    """Wrap the public names each layer is reached through."""
    memory, agents, runtime = agentrec.memory, agentrec.agents, agentrec.runtime
    pipelines, blueprints = agentrec.pipelines, agentrec.blueprints
    cli = agentrec.cli

    for module in (memory, pipelines, agentrec.simulation, cli):
        tracer.count(module, "embed_text", "memory.embed_text", timed=True)
    for module in (memory, pipelines, agentrec.simulation):
        tracer.count(module, "cosine", "memory.cosine")
    for module in (memory, blueprints, cli):
        tracer.span(module, "retrieve_topk", "memory.retrieve_topk")
    tracer.span(agents, "regulate_context", "memory.regulate_context")
    tracer.span(agents, "tail_window", "memory.tail_window")
    tracer.span(agents, "update_memory", "memory.update_memory")
    tracer.count(agentrec.simulation, "update_memory", "memory.update_memory", timed=True)

    tracer.span(runtime, "step_agent", "agents.step_agent")
    tracer.count(agents, "invoke_tool", "agents.invoke_tool")

    tracer.span(runtime.MasRuntime, "run_episode", "runtime.run_episode",
                after=_count_messages)
    tracer.count(runtime.Environment, "item_by_id", "runtime.item_by_id", timed=True)
    tracer.span(runtime, "apply_env_update", "runtime.apply_env_update")

    for module in (pipelines, cli):
        tracer.span(module, "recommend_interactive", "pipelines.recommend_interactive")
    tracer.span(pipelines, "check_collection_consistency",
                "pipelines.check_collection_consistency")
    for module in (pipelines, cli):
        tracer.span(module, "recommend_multimodal", "pipelines.recommend_multimodal")
    for module in (pipelines, cli):
        tracer.span(module, "explain_with_revision", "pipelines.explain_with_revision",
                    after=_count_rounds)
    for module in (pipelines, blueprints):
        tracer.count(module, "score_item", "pipelines.score_item")
    tracer.count(pipelines, "check_compliance", "reliability.check_compliance")

    for module in (blueprints, cli):
        tracer.span(module, "build_interactive_runtime", "blueprints.build_interactive_runtime")
    tracer.wrap_tools(blueprints.TOOL_KINDS)

    tracer.span(cli, "run_sessions", "simulation.run_sessions", after=_count_steps)
    tracer.span(cli, "evaluate", "simulation.evaluate")
    tracer.span(cli, "simulate_error_cascade", "reliability.simulate_error_cascade",
                after=_count_trials)

    tracer.span(cli, "run_scenario", "cli.run_scenario")
    tracer.span(cli, "load_catalog", "cli.load_catalog")


def _traced_tool_factory(tracer, kind, factory):
    name = f"blueprints.{kind}"

    def build(*args, **kwargs):
        tool = factory(*args, **kwargs)
        handler = tool.handler

        def traced(text):
            tracer.open(name)
            try:
                return handler(text)
            finally:
                tracer.close()

        tool.handler = traced
        return tool

    return build


# per-layer metrics -----------------------------------------------------------

# name -> unit, in BENCHMARK.json order
LAYER_METRICS = {
    "memory.embed_calls_per_op": "count",
    "memory.embed_ms_per_op": "ms",
    "memory.cosine_calls_per_op": "count",
    "memory.retrieve_topk_ms": "ms",
    "memory.context_ms": "ms",
    "memory.raw_log_tokens": "count",
    "memory.update_ms": "ms",
    "agents.step_self_ms": "ms",
    "agents.tool_calls_per_op": "count",
    "runtime.hop_self_ms": "ms",
    "runtime.messages_per_op": "count",
    "runtime.item_lookup_us": "us",
    "runtime.env_update_ms": "ms",
    "pipelines.rank_ms": "ms",
    "pipelines.items_scored_per_op": "count",
    "pipelines.bundle_ms": "ms",
    "pipelines.explain_ms": "ms",
    "pipelines.explain_rounds_per_accept": "count",
    "blueprints.category_search_ms": "ms",
    "blueprints.collection_check_ms": "ms",
    "blueprints.build_ms": "ms",
    "simulation.step_us": "us",
    "simulation.steps_per_job": "count",
    "simulation.evaluate_ms": "ms",
    "reliability.cascade_trial_us": "us",
    "reliability.compliance_checks_per_op": "count",
    "cli.import_ms": "ms",
    "cli.self_ms_per_job": "ms",
    "cli.load_catalog_ms": "ms",
    "cli.trace_bytes_per_job": "count",
    "bench.traced_ops_per_s": "op/s",
}


def _ratio(numerator, denominator, scale=1.0):
    """A layer the workload never reaches reads 0: nothing was spent there."""
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(tracer, ops):
    """Per-layer figures of the timed ops (set-up spans only for load_catalog).

    `cli.import_ms` and `bench.traced_ops_per_s` come from the caller.
    """
    totals = tracer.span_totals(timed_only=True)
    every = tracer.span_totals(timed_only=False)
    c, t = tracer.counts, tracer.times

    def calls(name):
        return totals[name][0] if name in totals else 0

    def total(name, column=1):
        return totals[name][column] if name in totals else 0.0

    def mean_ms(name, table=totals):
        row = table.get(name, (0, 0.0, 0.0))
        return _ratio(row[1], row[0], 1000.0)

    steps = calls("agents.step_agent")
    update_calls = calls("memory.update_memory") + c["memory.update_memory"]
    update_time = total("memory.update_memory") + t["memory.update_memory"]
    jobs = calls("cli.run_scenario")
    return {
        "memory.embed_calls_per_op": _ratio(c["memory.embed_text"], ops),
        "memory.embed_ms_per_op": _ratio(t["memory.embed_text"], ops, 1000.0),
        "memory.cosine_calls_per_op": _ratio(c["memory.cosine"], ops),
        "memory.retrieve_topk_ms": mean_ms("memory.retrieve_topk"),
        "memory.context_ms": _ratio(total("memory.regulate_context")
                                    + total("memory.tail_window"), steps, 1000.0),
        "memory.raw_log_tokens": _ratio(c["memory.raw_log_tokens"], ops),
        "memory.update_ms": _ratio(update_time, update_calls, 1000.0),
        "agents.step_self_ms": _ratio(total("agents.step_agent", 2), steps, 1000.0),
        "agents.tool_calls_per_op": _ratio(c["agents.invoke_tool"], ops),
        "runtime.hop_self_ms": _ratio(total("runtime.run_episode", 2),
                                      c["runtime.messages"], 1000.0),
        "runtime.messages_per_op": _ratio(c["runtime.messages"], ops),
        "runtime.item_lookup_us": _ratio(t["runtime.item_by_id"],
                                         c["runtime.item_by_id"], 1e6),
        "runtime.env_update_ms": mean_ms("runtime.apply_env_update"),
        "pipelines.rank_ms": mean_ms("pipelines.recommend_interactive"),
        "pipelines.items_scored_per_op": _ratio(c["pipelines.score_item"], ops),
        "pipelines.bundle_ms": mean_ms("pipelines.recommend_multimodal"),
        "pipelines.explain_ms": mean_ms("pipelines.explain_with_revision"),
        "pipelines.explain_rounds_per_accept": _ratio(c["pipelines.explain_rounds"],
                                                      c["pipelines.explain_accepts"]),
        "blueprints.category_search_ms": mean_ms("blueprints.category_search"),
        "blueprints.collection_check_ms": mean_ms("blueprints.collection_check"),
        "blueprints.build_ms": mean_ms("blueprints.build_interactive_runtime"),
        "simulation.step_us": _ratio(total("simulation.run_sessions"),
                                     c["simulation.steps"], 1e6),
        "simulation.steps_per_job": _ratio(c["simulation.steps"], c["simulation.jobs"]),
        "simulation.evaluate_ms": mean_ms("simulation.evaluate"),
        "reliability.cascade_trial_us": _ratio(total("reliability.simulate_error_cascade"),
                                               c["reliability.trials"], 1e6),
        "reliability.compliance_checks_per_op": _ratio(c["reliability.check_compliance"],
                                                       ops),
        "cli.self_ms_per_job": _ratio(total("cli.run_scenario", 2), jobs, 1000.0),
        "cli.load_catalog_ms": mean_ms("cli.load_catalog", every),
        "cli.trace_bytes_per_job": _ratio(c["cli.trace_bytes"], jobs),
    }
