"""Spans around cryslkit's public functions, and the arithmetic on them.

``traced(tracer)`` replaces every public, non-generator function of the layer
modules with a wrapper, on every ``cryslkit`` module attribute that holds it.
That is the attribute callers look up (``cryslkit.cli.run_build`` as well as
``cryslkit.preprocessor.run_build``), so calls between modules and within a
module are both seen. Generator functions stay unwrapped: their work happens
while the caller iterates, so it is counted as the caller's.

A span is a tuple ``(name, layer, start, end, parent, op)``: ``parent`` is
the index of the enclosing span (-1 for none) and ``op`` the operation the
span belongs to. The benchmark's own operations are spans of layer ``op``.
Spans stay in memory; ``summarize`` reduces them when a traced round ends.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("parsing", "preprocessor", "model", "emitter", "automaton", "tracecheck", "metrics", "cli")
OP = "op"


def _count_parse(counters, args, result):
    counters["parsing.files"] += 1
    counters["parsing.bytes"] += len(args[0].text.encode("utf-8"))


def _count_build(counters, args, result):
    counters["preprocessor.specs_loaded"] += result.stats.specs_loaded
    counters["preprocessor.refinements_applied"] += result.stats.refinements_applied


def _count_call(key):
    def hook(counters, args, result):
        counters[key] += 1
    return hook


def _count_len(key):
    def hook(counters, args, result):
        counters[key] += len(result)
    return hook


def _count_text_bytes(key):
    def hook(counters, args, result):
        counters[key] += len(result.encode("utf-8"))
    return hook


def _count_dfa(counters, args, result):
    counters["automaton.compiles"] += 1
    counters["automaton.dfa_states"] += result.state_count
    counters["automaton.dfa_transitions"] += len(result.transitions)


def _count_events(counters, args, result):
    counters["tracecheck.events_parsed"] += len(result[0])


def _count_findings(counters, args, result):
    counters["tracecheck.violations"] += len(result.violations)
    counters["tracecheck.warnings"] += len(result.warnings)


# Counters read from the arguments or result of a call, keyed by span name.
HOOKS = {
    "parsing.parse_crysl": _count_parse,
    "parsing.parse_abstract": _count_parse,
    "parsing.parse_refinement": _count_parse,
    "parsing.parse_config": _count_parse,
    "preprocessor.run_build": _count_build,
    "model.validate_spec": _count_call("model.validate_calls"),
    "model.validate_rule_set": _count_call("model.validate_calls"),
    "emitter.emit": _count_len("emitter.files"),
    "emitter.pretty_print": _count_text_bytes("emitter.bytes"),
    "automaton.compile_order": _count_dfa,
    "tracecheck.parse_trace_lines": _count_events,
    "tracecheck.check_trace": _count_findings,
    "tracecheck.report": _count_text_bytes("tracecheck.report_bytes"),
    "metrics.normalize_lines": _count_len("metrics.lines_counted"),
}


COUNTERS = (
    "parsing.files", "parsing.bytes", "preprocessor.specs_loaded",
    "preprocessor.refinements_applied", "model.validate_calls", "emitter.files",
    "emitter.bytes", "automaton.compiles", "automaton.dfa_states",
    "automaton.dfa_transitions", "tracecheck.events_parsed", "tracecheck.violations",
    "tracecheck.warnings", "tracecheck.report_bytes", "metrics.lines_counted",
)


class Tracer:
    """Spans and counters of one traced round."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.op_id = -1
        self.last_op = -1

    def wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent, self.op_id)
            if hook is not None:
                hook(self.counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def operation(self, name: str):
        """A root span of layer ``op``; yields a dict that receives ``seconds``."""
        self.op_id += 1
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        timing = {}
        start = time.perf_counter()
        try:
            yield timing
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, OP, start, end, -1, self.op_id)
            self.last_op = index
            timing["seconds"] = end - start

    def adopt(self, child_spans, parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``.

        Their clock is comparable: ``perf_counter`` reads the system-wide
        monotonic clock.
        """
        base = len(self.spans)
        for name, layer, start, end, up, _ in child_spans:
            self.spans.append((name, layer, start, end, parent if up < 0 else base + up, self.op_id))


@contextmanager
def traced(tracer: Tracer):
    """Wrap the layer modules' public functions for the duration of the block."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"cryslkit.{layer}")
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and not inspect.isgeneratorfunction(obj)
            ):
                wrappers[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{attr}", layer))
    patched = []
    for name, module in list(sys.modules.items()):
        if name != "cryslkit" and not name.startswith("cryslkit."):
            continue
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
                patched.append((module, attr, obj))
    try:
        yield tracer
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of the time its children cover."""
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span[4] >= 0:
            children[span[4]].append(index)
    out = []
    for index, (_, _, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][2], spans[c][3]) for c in children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def inclusive(spans, names) -> float:
    """Time inside spans named in ``names``, not counting one inside another."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        up = span[4]
        while up >= 0 and spans[up][0] not in names:
            up = spans[up][4]
        if up < 0:
            total += span[3] - span[2]
    return total


def summarize(spans, counters) -> dict[str, float]:
    """Per-layer times and counters of one traced round.

    ``trace.op_s`` is the time of the benchmark's operations; it equals the
    layers' self times plus ``trace.unattributed_s``, the operations' own
    self time (work outside every wrapped function).
    """
    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS + (OP,), 0.0)
    by_name: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        layer_self[span[1]] += own
        by_name[span[0]] += own
    out = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    out["trace.op_s"] = sum(s[3] - s[2] for s in spans if s[1] == OP and s[4] < 0)
    out["trace.unattributed_s"] = layer_self[OP]

    def incl(*names):
        return inclusive(spans, names)

    out.update({
        "preprocessor.load_self_s": by_name["preprocessor.load"],
        "preprocessor.resolve_self_s": by_name["preprocessor.resolve"],
        "model.validate_s": incl("model.validate_spec", "model.validate_rule_set"),
        "model.to_concrete_s": incl("model.to_concrete"),
        "emitter.pretty_print_s": incl("emitter.pretty_print"),
        "emitter.emit_self_s": by_name["emitter.emit"],
        "automaton.compile_s": incl("automaton.compile_order"),
        "tracecheck.parse_s": incl("tracecheck.parse_trace_lines"),
        "tracecheck.check_s": incl("tracecheck.check_trace"),
        "tracecheck.compile_rules_s": incl("tracecheck.compile_rules"),
        "tracecheck.report_s": incl("tracecheck.report"),
        "metrics.savings_self_s": by_name["metrics.savings"],
    })
    parse_incl = incl("parsing.parse_crysl", "parsing.parse_abstract",
                      "parsing.parse_refinement", "parsing.parse_config")
    out["parsing.bytes_per_s"] = counters["parsing.bytes"] / parse_incl if parse_incl else 0.0
    parse_s = out["tracecheck.parse_s"]
    out["tracecheck.parse_events_per_s"] = (
        counters["tracecheck.events_parsed"] / parse_s if parse_s else 0.0
    )
    # Measured by the benchmark outside the spans, where a workload has them.
    out.update(dict.fromkeys(("cli.interp_ms", "cli.import_ms", "tracecheck.events_ignored",
                              "tracecheck.live_objects_peak"), 0.0))
    commands = [s[3] - s[2] for s in spans if s[0] == "cli.main"]
    out["cli.command_ms"] = 1000 * statistics.median(commands) if commands else 0.0
    out.update((key, float(counters[key])) for key in COUNTERS)
    return out
