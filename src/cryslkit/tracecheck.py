"""Conformance checking of recorded event traces against a rule set.

Traces are JSON lines, one event per line, with the fields of
:class:`TraceEvent`; argument values are strings, integers, object
references (``{"ref": "<id>"}``) or the unknown marker ``"?"``. The checker
runs each object's event sequence through its rule's typestate automaton and
evaluates argument constraints as values become bound, reporting four kinds
of findings: ``order``, ``incomplete``, ``constraint`` and
``missing-predicate``.

Unknown argument values never produce violations, only warnings: a recorded
trace can be as indefinite as a static analysis, and the checker must not
fabricate certainty. Predicates are tracked by value identity (reference id
or literal value); there is no aliasing analysis.

What a check costs: :func:`compile_rules` works out, once per rule, which
declaration each ``(method, arity)`` pair matches, each constraint's sorted
variables and rendered text, and one index per declaration: the constraints
its parameters and its return binding reach. Checking then costs one dict
lookup per event to find its declaration, one automaton step, and a walk
over that index; the other constraints cannot have changed since the
object's previous event, and one in the index whose bindings the event left
as they were (a return binding without a return id) is skipped by its
signature. Reading and reporting keep pace: each trace line goes through the
C JSON scanner once (``json.loads`` only for a line the scanner does not take
whole, so diagnostics keep their text), events are ``__slots__`` records with
a plain ``__init__``, and :func:`report` fills a fixed template per violation
instead of running ``json.dumps``'s indenting encoder, which is pure Python.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Union

from .automaton import TypestateAutomaton, lazy_automaton
from .diagnostics import Diagnostic, Loc, Record, error_at
from .emitter import render_constraint, render_literal
from .model import (
    ConstraintExpr,
    CrySLSpec,
    EventDecl,
    Implication,
    LiteralSet,
    Membership,
    VarRef,
    constraint_memberships,
)
from .parsing import undecodable_byte


class Ref(Record):
    """An opaque object-reference id appearing as an argument value."""

    id: str


class Unknown:
    """Type of :data:`UNKNOWN`, the marker for an argument whose value was not
    recorded."""

    def __repr__(self) -> str:
        return "UNKNOWN"


UNKNOWN = Unknown()

ArgValue = Union[str, int, Ref, Unknown]


class TraceEvent(Record):
    seq: int
    object_id: str
    class_name: str
    method_name: str
    args: tuple[ArgValue, ...] = ()
    return_id: str | None = None


class Violation(Record):
    kind: str  # order | incomplete | constraint | missing-predicate
    object_id: str
    seq: int | None  # None marks end of trace (incomplete objects)
    rule_class: str
    message: str


# ---------------------------------------------------------------------------
# Trace input
# ---------------------------------------------------------------------------


def _parse_arg(raw) -> ArgValue:
    if isinstance(raw, str):
        return UNKNOWN if raw == "?" else raw
    if isinstance(raw, bool):
        raise ValueError("boolean arguments are not part of the trace format")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, dict) and set(raw) == {"ref"} and isinstance(raw["ref"], str):
        return Ref(raw["ref"])
    raise ValueError(f"unsupported argument value {raw!r}")


_JSON_TYPE_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "an array", dict: "an object", type(None): "null",
}


def _wrong_type(field_name: str, expected: str, value) -> ValueError:
    return ValueError(f"'{field_name}' must be {expected}, not {_JSON_TYPE_NAMES[type(value)]}")


_scan = json.JSONDecoder().scan_once


def _decode(text: str):
    """``json.loads(text)`` for a line already stripped, through the C scanner.

    The scanner's answer stands only when it used the whole line; any failure
    or a short answer goes to ``json.loads``, so a diagnostic keeps its text.
    ``json.loads`` skips JSON whitespace at both ends first, which a stripped
    line has none of, so both agree on every line.
    """
    try:
        value, end = _scan(text, 0)
    except (StopIteration, ValueError, RecursionError):  # StopIteration: no value at 0
        return json.loads(text)
    if end != len(text):
        return json.loads(text)
    return value


def parse_trace_lines(
    lines: Iterable[str], path: str = "<trace>"
) -> tuple[list[TraceEvent], list[Diagnostic]]:
    """Parse JSON-lines trace text; malformed lines are reported and skipped.

    A byte that is not UTF-8 arrives as the code point ``surrogateescape``
    gives it (``load_trace`` reads that way); a line holding one is malformed.
    """
    events: list[TraceEvent] = []
    diags: list[Diagnostic] = []
    last_seq: int | None = None
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            if not text.isascii():
                bad_byte = undecodable_byte(text)
                if bad_byte is not None:
                    raise ValueError(bad_byte[1])
            record = _decode(text)
            if type(record) is not dict:
                raise ValueError("trace line must be a JSON object")
            # Exact type tests: JSON true is a bool, which int() would accept.
            seq = record["seq"]
            if type(seq) is not int:
                raise _wrong_type("seq", "an integer", seq)
            object_id = record["object_id"]
            if type(object_id) is not str:
                raise _wrong_type("object_id", "a string", object_id)
            class_name = record["class_name"]
            if type(class_name) is not str:
                raise _wrong_type("class_name", "a string", class_name)
            method_name = record["method_name"]
            if type(method_name) is not str:
                raise _wrong_type("method_name", "a string", method_name)
            args = record.get("args", [])
            if type(args) is not list:
                raise _wrong_type("args", "an array", args)
            return_id = record.get("return_id")
            if return_id is not None and type(return_id) is not str:
                raise _wrong_type("return_id", "a string or null", return_id)
            event = TraceEvent(seq, object_id, class_name, method_name,
                               tuple([_parse_arg(a) for a in args]), return_id)
        # RecursionError: the JSON decoder's answer to arrays or objects nested
        # too deeply.
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            diags.append(error_at(path, Loc(line_no, 1), f"malformed trace line: {exc}"))
            continue
        if last_seq is not None and seq <= last_seq:
            diags.append(
                error_at(path, Loc(line_no, 1),
                         f"seq {seq} does not increase (previous was {last_seq})")
            )
            continue
        last_seq = seq
        events.append(event)
    return events, diags


def load_trace(path: str | Path) -> tuple[list[TraceEvent], list[Diagnostic]]:
    text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
    return parse_trace_lines(text.splitlines(), str(path))


# ---------------------------------------------------------------------------
# Rule compilation
# ---------------------------------------------------------------------------


class _EventPlan(Record):
    """What a matched event does to its object's run, worked out once."""

    decl: EventDecl
    params: tuple[tuple[int, str], ...]  # (argument position, variable) per VarRef
    constraints: tuple[int, ...]  # indices of constraints on a parameter or return variable


class CompiledRule(Record):
    spec: CrySLSpec
    automaton: TypestateAutomaton
    # (method name, arity) -> plan of the first declaration with that key
    dispatch: dict[tuple[str, int], _EventPlan]
    constraint_vars: tuple[tuple[str, ...], ...]  # sorted, per constraint
    constraint_texts: tuple[str, ...]


def _compile_rule(spec: CrySLSpec) -> CompiledRule:
    constraint_vars = tuple(
        tuple(sorted({m.var for m in constraint_memberships(c)})) for c in spec.constraints
    )

    def reached(names: set[str]) -> tuple[int, ...]:
        return tuple(i for i, used in enumerate(constraint_vars) if names.intersection(used))

    dispatch: dict[tuple[str, int], _EventPlan] = {}
    for decl in spec.events:
        key = (decl.method_name, len(decl.params))
        if key in dispatch:
            continue  # an earlier declaration already matches these events
        params = tuple(
            (position, param.name)
            for position, param in enumerate(decl.params)
            if isinstance(param, VarRef)
        )
        dispatch[key] = _EventPlan(
            decl, params, reached({name for _, name in params} | {decl.return_binding})
        )
    return CompiledRule(
        spec,
        lazy_automaton(spec.order, spec.aggregates),
        dispatch,
        constraint_vars,
        tuple(render_constraint(c) for c in spec.constraints),
    )


def compile_rules(specs: Iterable[CrySLSpec]) -> dict[str, CompiledRule]:
    """Compile validated rules for checking, keyed by fully qualified class
    name. Duplicate classes are rejected.

    Each rule's automaton starts with its initial state only; checking builds
    the states its traces reach.
    """
    rules: dict[str, CompiledRule] = {}
    for spec in specs:
        if spec.class_name in rules:
            raise ValueError(f"duplicate rule for class '{spec.class_name}'")
        rules[spec.class_name] = _compile_rule(spec)
    return rules


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


class CheckResult(Record):
    violations: list[Violation]
    warnings: list[str]


class _ObjectRun:
    """One object's progress through its rule; updated by every event."""

    __slots__ = ("rule", "object_id", "state", "broken", "env", "evaluated",
                 "constraint_ok", "requires_checked")

    def __init__(self, rule: CompiledRule, object_id: str, state: int):
        self.rule = rule
        self.object_id = object_id
        self.state = state
        self.broken = False  # order already violated; automaton is in the sink
        self.env: dict[str, ArgValue] = {}
        self.evaluated: dict[int, tuple] = {}
        self.constraint_ok = True
        self.requires_checked = False


def _membership_holds(membership: Membership, env: dict[str, ArgValue]):
    """True/False when decidable, UNKNOWN when the bound value is unknown."""
    value = env[membership.var]
    if value is UNKNOWN or isinstance(value, Ref):
        return UNKNOWN
    assert isinstance(membership.values, LiteralSet)
    return value in membership.values.values


def _eval_constraint(constraint: ConstraintExpr, env: dict[str, ArgValue]):
    if isinstance(constraint, Implication):
        lhs = _membership_holds(constraint.lhs, env)
        if lhs is False:
            return True
        rhs = _membership_holds(constraint.rhs, env)
        if lhs is UNKNOWN:
            return True if rhs is True else UNKNOWN
        return rhs
    return _membership_holds(constraint, env)


def _value_key(value: ArgValue):
    """Identity used for predicate tracking: reference id or literal value."""
    if isinstance(value, Ref):
        return value.id
    if value is UNKNOWN:
        return None
    return value


def check_trace(rules: dict[str, CompiledRule], trace: list[TraceEvent]) -> CheckResult:
    """Check one trace against the compiled rules.

    An event matches by class name, then by method name and arity; wildcard
    parameters match anything, and when declarations share a method name and
    arity the first one declared matches. Events of a class with no rule are
    ignored; an undeclared method on a ruled class breaks the call order.
    Events are evaluated in ``seq`` order. Per object the rule's automaton
    tracks call order (the first break is reported, the object then stays in
    the sink); a constraint is judged whenever all its variables are bound
    to a combination of values not seen before; only the constraints on a
    variable the event binds can meet that test. ENSURES predicates enter the
    store when a rule completes with all constraints satisfied. REQUIRES
    argument identities are fixed at the rule's first completion and tested
    against the store once the whole trace has been seen, so events of
    unrelated objects can be reordered without changing the findings.
    """
    violations: list[Violation] = []
    warnings: list[str] = []
    predicates: set[tuple[str, object]] = set()
    runs: dict[tuple[str, str], _ObjectRun] = {}
    # (rule, object, predicate, keys, completion seq): argument identities are
    # fixed at completion, but the store lookup happens once the whole trace
    # has been seen, so reordering events of unrelated objects cannot flip
    # the outcome.
    pending_requires: list[tuple[_ObjectRun, str, tuple, tuple, int]] = []

    def found(kind: str, run: _ObjectRun, seq: int | None, message: str) -> None:
        violations.append(Violation(kind, run.object_id, seq, run.rule.spec.class_name, message))

    def warn(seq: int, run: _ObjectRun, text: str) -> None:
        warnings.append(f"seq {seq}: {run.object_id}: cannot {text} (unknown value)")

    def check_constraints(run: _ObjectRun, seq: int, indices: tuple[int, ...]) -> None:
        rule = run.rule
        env = run.env
        for index in indices:
            names = rule.constraint_vars[index]
            signature = tuple(map(env.get, names))
            if None in signature:
                continue  # a variable is still unbound; no bound value is None
            if run.evaluated.get(index) == signature:
                continue  # same bindings were already judged at an earlier event
            run.evaluated[index] = signature
            outcome = _eval_constraint(rule.spec.constraints[index], env)
            if outcome is True:
                continue
            rendered = rule.constraint_texts[index]
            if outcome is UNKNOWN:
                warn(seq, run, f"decide '{rendered}'")
                continue
            run.constraint_ok = False
            bindings = ", ".join(
                f"{name} = {_render_value(value)}" for name, value in zip(names, signature)
            )
            found("constraint", run, seq, f"{bindings} violates '{rendered}'")

    def complete(run: _ObjectRun, seq: int) -> None:
        spec = run.rule.spec
        if run.constraint_ok:
            for pred in spec.ensures:
                keys = [_value_key(run.env.get(arg, UNKNOWN)) for arg in pred.args]
                if all(k is not None for k in keys):
                    predicates.add((pred.name, tuple(keys)))
        if not run.requires_checked:
            run.requires_checked = True
            for pred in spec.requires:
                keys = [_value_key(run.env.get(arg, UNKNOWN)) for arg in pred.args]
                if any(k is None for k in keys):
                    warn(seq, run, f"check requires {pred.name}[{', '.join(pred.args)}]")
                    continue
                pending_requires.append((run, pred.name, pred.args, tuple(keys), seq))

    for event in sorted(trace, key=attrgetter("seq")):
        rule = rules.get(event.class_name)
        if rule is None:
            continue
        key = (event.object_id, event.class_name)
        run = runs.get(key)
        if run is None:
            run = runs[key] = _ObjectRun(rule, event.object_id, rule.automaton.initial)
        args = event.args
        plan = rule.dispatch.get((event.method_name, len(args)))
        if plan is None:
            if not run.broken:
                run.broken = True
                found("order", run, event.seq, f"{event.method_name}() is not a declared event")
            continue
        env = run.env
        for position, name in plan.params:
            env[name] = args[position]
        decl = plan.decl
        if decl.return_binding is not None and event.return_id is not None:
            env[decl.return_binding] = Ref(event.return_id)
        # Without a return id the return binding keeps its earlier value, so
        # the constraints only it reaches are skipped by their signature.
        if plan.constraints:
            check_constraints(run, event.seq, plan.constraints)
        if run.broken:
            continue
        next_state = rule.automaton.step(run.state, decl.label)
        if next_state is None:
            run.broken = True
            found("order", run, event.seq, f"{event.method_name}() breaks the declared call order")
            continue
        run.state = next_state
        if run.state in rule.automaton.accepting:
            complete(run, event.seq)

    for run, name, args, keys, seq in pending_requires:
        if (name, keys) not in predicates:
            found("missing-predicate", run, seq,
                  f"requires {name}[{', '.join(args)}] but no rule established it")

    for key in sorted(runs):
        run = runs[key]
        if not (run.broken or run.state in run.rule.automaton.accepting):
            found("incomplete", run, None,
                  "object discarded before completing the declared protocol")

    violations.sort(key=lambda v: (v.seq is None, v.seq or 0, v.object_id, v.kind))
    return CheckResult(violations=violations, warnings=warnings)


def _render_value(value: ArgValue) -> str:
    if isinstance(value, Ref):
        return f"ref:{value.id}"
    if value is UNKNOWN:
        return "?"
    return render_literal(value)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

VIOLATION_KINDS = ("constraint", "incomplete", "missing-predicate", "order")

# One violation as ``json.dumps(..., indent=2)`` lays it out inside the report.
_VIOLATION_JSON = (
    '    {\n'
    '      "kind": %s,\n'
    '      "object_id": %s,\n'
    '      "seq": %s,\n'
    '      "rule": %s,\n'
    '      "message": %s\n'
    '    }'
)


def report(violations: list[Violation], fmt: str = "json") -> str:
    """Render violations as a JSON document or an aligned text table.

    The JSON schema is documented in ``docs/formats.md``; identical input
    always yields identical output bytes. ``json.dumps`` with ``indent`` runs
    its encoder in Python, so only the short head goes through it; each
    violation fills a fixed template, with strings escaped by the C encoder.
    """
    if fmt == "json":
        by_kind = {kind: 0 for kind in VIOLATION_KINDS}
        by_rule: dict[str, int] = {}
        for violation in violations:
            by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
            by_rule[violation.rule_class] = by_rule.get(violation.rule_class, 0) + 1
        head = json.dumps({
            "total": len(violations),
            "by_kind": dict(sorted(by_kind.items())),
            "by_rule": dict(sorted(by_rule.items())),
        }, indent=2)[:-2]  # reopened before its closing "\n}"
        if not violations:
            return head + ',\n  "violations": []\n}\n'
        quote = encode_basestring_ascii
        blocks = ",\n".join([
            _VIOLATION_JSON % (
                quote(v.kind), quote(v.object_id), "null" if v.seq is None else int.__repr__(v.seq),
                quote(v.rule_class), quote(v.message),
            )
            for v in violations
        ])
        return f'{head},\n  "violations": [\n{blocks}\n  ]\n}}\n'
    if fmt != "table":
        raise ValueError(f"unknown report format '{fmt}'")

    headers = ("KIND", "OBJECT", "SEQ", "RULE", "MESSAGE")
    rows = [
        (v.kind, v.object_id, "end" if v.seq is None else str(v.seq), v.rule_class, v.message)
        for v in violations
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    lines.append(f"total: {len(violations)}")
    return "\n".join(lines) + "\n"
