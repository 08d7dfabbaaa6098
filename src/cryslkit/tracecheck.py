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
declaration each ``(method, arity)`` pair matches, a slot number for every
variable such a declaration binds, each constraint's slots, allowed values
and rendered text, and one index per declaration: the constraints its
parameters and its return binding reach. Checking then costs one dict
lookup per event to find its declaration, one automaton step, and a walk
over that index; the other constraints cannot have changed since the
object's previous event, and one in the index whose bindings the event left
as they were (a return binding without a return id) is skipped by its
signature. Reading and reporting keep pace: each trace line goes through the
C JSON scanner once (``json.loads`` only for a line the scanner does not take
whole, so diagnostics keep their text), events are ``__slots__`` records with
a plain ``__init__``, and :func:`report` fills one template per violation.
:func:`parse_trace_lines` and :func:`check_trace` run with the cyclic garbage
collector paused, so its young collections do not walk the events and runs,
which live until the check ends, again and again. That is safe because
neither makes a reference cycle (a test pins it): reference counting frees
everything they drop, and the one collection the pause defers runs at the
first allocation after the call. The pause is process-wide: a collector that
was off at the call stays off, and one that another thread switches off
during the call is on again afterwards.

What a check holds in memory: the events, which share one object per
distinct trace value (one ``str`` per distinct name, id and string literal,
one :class:`Ref` per distinct reference id and one tuple per distinct
argument list without a reference, for the length of one
:func:`parse_trace_lines` call; a list with a reference is a tuple of its
own, since hashing a :class:`Ref` runs in Python and few such lists
repeat); per object, one run, in a dict per rule keyed by object id: a
single ``list`` subclass, copied from the rule's ``blank``, whose items are
the value bound in each slot and then the signature last judged per
constraint (the value itself for a constraint on one variable), and whose
three ``__slots__`` hold its automaton state and two flags; and one message
per distinct finding, shared by every violation that repeats it. The runs,
the predicate store, the pending REQUIRES and the message table are cleared
as soon as the last finding is made, before the findings are sorted, so the
sort's key tuples reuse their memory. :func:`load_trace` reads its file line
by line, never the whole text, and :func:`report` builds no string per
violation that outlives its slice.
"""

from __future__ import annotations

import functools
import gc
import json
from json.encoder import encode_basestring, encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Union

from .automaton import TypestateAutomaton, lazy_automaton
from .diagnostics import Diagnostic, Loc, Record, _one_line, error_at, warning_at
from .emitter import json_text, render_constraint
from .model import (
    CrySLSpec,
    EventDecl,
    Implication,
    LiteralSet,
    Membership,
    PredicateRef,
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


_JSON_TYPE_NAMES = {
    bool: "a boolean", int: "an integer", float: "a number", str: "a string",
    list: "an array", dict: "an object", type(None): "null",
}


def _wrong_type(field_name: str, expected: str, value) -> ValueError:
    return ValueError(f"'{field_name}' must be {expected}, not {_JSON_TYPE_NAMES[type(value)]}")


# The fields every trace line has, in the order their errors are reported.
_REQUIRED_FIELDS = (("seq", int, "an integer"), ("object_id", str, "a string"),
                    ("class_name", str, "a string"), ("method_name", str, "a string"))
_required_values = itemgetter(*(name for name, _, _ in _REQUIRED_FIELDS))


def _bad_argument(value) -> ValueError:
    """The error for an argument that is no string, integer or reference,
    naming the value as JSON spells it (ASCII only, as on stderr)."""
    if type(value) is bool:
        return ValueError("boolean arguments are not part of the trace format")
    return ValueError(f"unsupported argument value {json.dumps(value)}")


_scan = json.JSONDecoder().scan_once

# The only whitespace JSON allows around a value (RFC 8259, section 2).
_JSON_WHITESPACE = " \t\r\n"


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


def _collector_paused(function):
    """``function`` run with the cyclic garbage collector paused.

    The collector is resumed afterwards, also when ``function`` raises, and
    only when it was running at the call; one that the caller switched off
    stays off.
    """
    @functools.wraps(function)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return function(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_collector_paused
def parse_trace_lines(
    lines: Iterable[str], path: str = "<trace>"
) -> tuple[list[TraceEvent], list[Diagnostic]]:
    """Parse JSON-lines trace text; malformed lines are reported and skipped.

    ``lines`` is any iterable of lines, a list or an open text file; JSON
    whitespace (space, tab, CR and LF) around each line is ignored, and any
    other character there makes the line malformed, as ``json.loads`` has it.
    A byte that is not UTF-8 arrives as the code point ``surrogateescape``
    gives it (``load_trace`` reads that way); a line holding one is malformed.
    A byte-order mark (U+FEFF) that starts the first line is skipped.

    A trace repeats its class and method names, object ids and literals on
    line after line, so the events share them: the call returns one ``str``
    per distinct string value, one :class:`Ref` per distinct reference id and
    one tuple per distinct argument list that holds no reference. An argument
    list with a reference is built per line: most objects are passed only a
    few times, so such a list rarely repeats, and sharing it would hash its
    :class:`Ref` records, which runs in Python.
    """
    events: list[TraceEvent] = []
    diags: list[Diagnostic] = []
    last_seq: int | None = None
    strings: dict[str, str] = {}
    refs: dict[str, Ref] = {}
    arg_tuples: dict[tuple, tuple] = {}
    share = strings.setdefault

    for line_no, line in enumerate(lines, start=1):
        text = line.strip(_JSON_WHITESPACE)
        if not text:
            continue
        try:
            if not text.isascii():
                if line_no == 1 and line[0] == "\ufeff":  # a byte-order mark, skipped
                    text = line[1:].strip(_JSON_WHITESPACE)
                    if not text:
                        continue
                bad_byte = undecodable_byte(text)
                if bad_byte is not None:
                    raise ValueError(bad_byte[1])
            record = _decode(text)
            if type(record) is not dict:
                raise ValueError("trace line must be a JSON object")
            # Exact type tests: JSON true is a bool, which int() would accept.
            try:
                seq, object_id, class_name, method_name = _required_values(record)
            except KeyError:  # the loop below names the first missing field
                seq = None
            if not (type(seq) is int and type(object_id) is str and type(class_name) is str
                    and type(method_name) is str):
                for name, kind, expected in _REQUIRED_FIELDS:
                    if type(record[name]) is not kind:  # KeyError for a missing field
                        raise _wrong_type(name, expected, record[name])
            args = record.get("args", ())
            if type(args) is not list and args != ():  # () only when the field is absent
                raise _wrong_type("args", "an array", args)
            return_id = record.get("return_id")
            if return_id is not None:
                if type(return_id) is not str:
                    raise _wrong_type("return_id", "a string or null", return_id)
                return_id = share(return_id, return_id)
            if args:
                values = []
                has_ref = False
                for a in args:
                    if type(a) is str:
                        values.append(share(a, a) if a != "?" else UNKNOWN)
                    elif type(a) is int:
                        values.append(a)
                    elif type(a) is dict and len(a) == 1 and type(ref_id := a.get("ref")) is str:
                        ref = refs.get(ref_id)
                        if ref is None:
                            ref_id = share(ref_id, ref_id)
                            ref = refs[ref_id] = Ref(ref_id)
                        values.append(ref)
                        has_ref = True
                    else:
                        raise _bad_argument(a)
                args = tuple(values)
                if not has_ref:  # hashing a Ref runs in Python; few reference lists repeat
                    args = arg_tuples.setdefault(args, args)
            else:
                args = ()
            event = TraceEvent(seq, share(object_id, object_id), share(class_name, class_name),
                               share(method_name, method_name), args, return_id)
        # RecursionError: the JSON decoder's answer to arrays or objects nested
        # too deeply.
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            diags.append(error_at(Loc(path, line_no, 1), f"malformed trace line: {exc}"))
            continue
        if last_seq is not None and seq <= last_seq:
            diags.append(
                error_at(Loc(path, line_no, 1),
                         f"seq {seq} does not increase (previous was {last_seq})")
            )
            continue
        last_seq = seq
        events.append(event)
    return events, diags


def load_trace(path: str | Path) -> tuple[list[TraceEvent], list[Diagnostic]]:
    """Parse the trace file at ``path`` as it is read.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` and nowhere else, as in JSON
    Lines, so a string value may hold U+2028 or any other character that
    ``str.splitlines`` would also break at.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as lines:
        return parse_trace_lines(lines, str(path))


# ---------------------------------------------------------------------------
# Rule compilation
# ---------------------------------------------------------------------------


class _EventPlan(Record):
    """What a matched event does to its object's run, worked out once."""

    label: str  # the declaration's label, as the automaton steps on it
    params: tuple[tuple[int, int], ...]  # (argument position, slot) per VarRef
    return_slot: int | None  # slot of the return binding, if one is declared
    constraints: tuple[int, ...]  # indices of constraints on a parameter or return variable


class _ConstraintPlan(Record):
    """One constraint, judged from the slots of a run."""

    names: tuple[str, ...]  # its variables, sorted
    # The bound values of ``names``: the value itself for one variable, a
    # tuple for more; None or a tuple holding None while one is unbound.
    signature: itemgetter
    memo: int  # where a run keeps the signature last judged
    premise: tuple[int, frozenset] | None  # (slot, allowed values) left of ``=>``
    conclusion: tuple[int, frozenset]  # (slot, allowed values) that must hold
    text: str  # as a finding quotes it
    loc: Loc | None  # where a warning about it points


class CompiledRule(Record):
    spec: CrySLSpec
    automaton: TypestateAutomaton
    # (method name, arity) -> plan of the first declaration with that key
    dispatch: dict[tuple[str, int], _EventPlan]
    # Per constraint; None for one with a variable that no event binds, which
    # is never judged.
    constraints: tuple[_ConstraintPlan | None, ...]
    # What a new run holds: None in each slot of a variable an event binds,
    # then in the slot of the signature last judged per constraint.
    blank: tuple[None, ...]
    # Per ENSURES and REQUIRES predicate, the slot of each argument (None
    # when no event binds it).
    ensures: tuple[tuple[PredicateRef, tuple[int | None, ...]], ...]
    requires: tuple[tuple[PredicateRef, tuple[int | None, ...]], ...]


def _compile_rule(spec: CrySLSpec) -> CompiledRule:
    decls: dict[tuple[str, int], EventDecl] = {}
    for decl in spec.events:
        # An earlier declaration already matches the events of a repeated key.
        decls.setdefault((decl.method_name, len(decl.params)), decl)
    slots: dict[str, int] = {}
    for decl in decls.values():
        for param in decl.params:
            if isinstance(param, VarRef):
                slots.setdefault(param.name, len(slots))
        if decl.return_binding is not None:
            slots.setdefault(decl.return_binding, len(slots))

    def test(membership: Membership) -> tuple[int, frozenset]:
        assert isinstance(membership.values, LiteralSet)
        return slots[membership.var], membership.values.values

    constraints: list[_ConstraintPlan | None] = []
    for index, constraint in enumerate(spec.constraints):
        names = tuple(sorted({m.var for m in constraint_memberships(constraint)}))
        if not slots.keys() >= set(names):
            constraints.append(None)
            continue
        if isinstance(constraint, Implication):
            premise, conclusion = test(constraint.lhs), test(constraint.rhs)
        else:
            premise, conclusion = None, test(constraint)
        constraints.append(_ConstraintPlan(
            names, itemgetter(*[slots[name] for name in names]), len(slots) + index,
            premise, conclusion, render_constraint(constraint), constraint.loc,
        ))

    def reached(names: set[str]) -> tuple[int, ...]:
        return tuple(i for i, plan in enumerate(constraints)
                     if plan is not None and names.intersection(plan.names))

    dispatch = {}
    for key, decl in decls.items():
        named = [(position, param.name) for position, param in enumerate(decl.params)
                 if isinstance(param, VarRef)]
        dispatch[key] = _EventPlan(
            decl.label, tuple((position, slots[name]) for position, name in named),
            slots.get(decl.return_binding),
            reached({name for _, name in named} | {decl.return_binding}),
        )

    def arguments(preds: tuple[PredicateRef, ...]):
        return tuple((pred, tuple(slots.get(arg) for arg in pred.args)) for pred in preds)

    return CompiledRule(
        spec,
        lazy_automaton(spec.order, spec.aggregates),
        dispatch,
        tuple(constraints),
        (None,) * (len(slots) + len(constraints)),
        arguments(spec.ensures),
        arguments(spec.requires),
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
    warnings: list[Diagnostic]


class _ObjectRun(list):
    """One object's progress through its rule; updated by every event.

    Its items start as the rule's ``blank``: the value bound per slot, then
    the signature last judged per constraint; None where there is none yet.
    ``state`` is the automaton state, None once the call order broke.
    """

    __slots__ = ("state", "constraint_ok", "requires_checked")


def _holds(test: tuple[int, frozenset], run: _ObjectRun):
    """True/False when decidable, UNKNOWN when the bound value is unknown or a
    reference."""
    slot, allowed = test
    value = run[slot]
    if value is UNKNOWN or type(value) is Ref:
        return UNKNOWN
    return value in allowed


def _judge(plan: _ConstraintPlan, run: _ObjectRun):
    """A constraint's outcome: True, False or UNKNOWN (see docs/grammar.md)."""
    if plan.premise is None:
        return _holds(plan.conclusion, run)
    lhs = _holds(plan.premise, run)
    if lhs is False:
        return True
    rhs = _holds(plan.conclusion, run)
    if lhs is UNKNOWN:
        return True if rhs is True else UNKNOWN
    return rhs


def _identities(run: _ObjectRun, slots: tuple[int | None, ...]) -> tuple:
    """Per predicate argument, the identity predicates are tracked by: the
    reference id or the literal value; None when the value is unknown or no
    event bound it."""
    keys = []
    for slot in slots:
        value = None if slot is None else run[slot]
        if type(value) is Ref:
            value = value.id
        keys.append(None if value is UNKNOWN else value)
    return tuple(keys)


@_collector_paused
def check_trace(rules: dict[str, CompiledRule], trace: Iterable[TraceEvent]) -> CheckResult:
    """Check one trace against the compiled rules.

    An event matches by class name, then by method name and arity; wildcard
    parameters match anything, and when declarations share a method name and
    arity the first one declared matches. Events of a class with no rule are
    ignored; an undeclared method on a ruled class breaks the call order.
    Events are evaluated in one pass over ``trace``, as given; a ``seq`` that
    does not increase is a ``ValueError``. Per object the rule's automaton
    tracks call order (the first break is reported, the object then stays in
    the sink); a constraint is judged whenever all its variables are bound
    to a combination of values not seen before; only the constraints on a
    variable the event binds can meet that test. ENSURES predicates enter the
    store when a rule completes with all constraints satisfied. REQUIRES
    argument identities are fixed at the rule's first completion and tested
    against the store once the whole trace has been seen, so events of
    unrelated objects can be reordered without changing the findings.
    A constraint or REQUIRES predicate that an unknown value leaves
    undecided is a warning located at it, in the file that declares it (a
    refinement's file for a node that a refinement added); its message names
    the event's ``seq`` and object id. Findings are sorted by ``seq``, the
    ``incomplete`` ones last, then by object id, kind and rule class.
    """
    violations: list[Violation] = []
    warnings: list[Diagnostic] = []
    predicates: set[tuple[str, tuple]] = set()
    # Per rule class, the rule and its runs keyed by object id.
    tables = {class_name: (rule, {}) for class_name, rule in rules.items()}
    # (object, rule, predicate, keys, completion seq), looked up in the store
    # once the whole trace has been seen (see above).
    pending_requires: list[tuple[str, CompiledRule, PredicateRef, tuple, int]] = []
    # (rule class, constraint index, signature) -> message: one text per
    # distinct finding, however many objects make it.
    messages: dict[tuple[str, int, object], str] = {}

    def found(kind: str, object_id: str, rule: CompiledRule, seq: int | None, message: str) -> None:
        violations.append(Violation(kind, object_id, seq, rule.spec.class_name, message))

    def warn(loc: Loc | None, seq: int, object_id: str, text: str) -> None:
        warnings.append(warning_at(loc, f"seq {seq}: {object_id}: cannot {text} (unknown value)"))

    def check_constraints(rule: CompiledRule, run: _ObjectRun, object_id: str, seq: int,
                          indices: tuple[int, ...]) -> None:
        for index in indices:
            plan = rule.constraints[index]
            signature = plan.signature(run)
            if signature is None or (type(signature) is tuple and None in signature):
                continue  # a variable is still unbound; no bound value is None
            if run[plan.memo] == signature:
                continue  # same bindings were already judged at an earlier event
            run[plan.memo] = signature
            outcome = _judge(plan, run)
            if outcome is True:
                continue
            if outcome is UNKNOWN:
                warn(plan.loc, seq, object_id, f"decide '{plan.text}'")
                continue
            run.constraint_ok = False
            key = (rule.spec.class_name, index, signature)
            message = messages.get(key)
            if message is None:
                bound = signature if type(signature) is tuple else (signature,)
                bindings = ", ".join(
                    f"{name} = {_render_value(value)}" for name, value in zip(plan.names, bound)
                )
                message = messages[key] = f"{bindings} violates '{plan.text}'"
            found("constraint", object_id, rule, seq, message)

    def complete(rule: CompiledRule, run: _ObjectRun, object_id: str, seq: int) -> None:
        if run.constraint_ok:
            for pred, slots in rule.ensures:
                keys = _identities(run, slots)
                if None not in keys:
                    predicates.add((pred.name, keys))
        if not run.requires_checked:
            run.requires_checked = True
            for pred, slots in rule.requires:
                keys = _identities(run, slots)
                if None in keys:
                    warn(pred.loc, seq, object_id,
                         f"check requires {pred.name}[{', '.join(pred.args)}]")
                    continue
                pending_requires.append((object_id, rule, pred, keys, seq))

    last_seq = None
    for event in trace:
        if last_seq is not None and event.seq <= last_seq:
            raise ValueError(f"seq {event.seq} does not increase (previous was {last_seq})")
        seq = last_seq = event.seq
        table = tables.get(event.class_name)
        if table is None:
            continue
        rule, runs = table
        object_id = event.object_id
        run = runs.get(object_id)
        if run is None:
            run = runs[object_id] = _ObjectRun(rule.blank)
            run.state = rule.automaton.initial
            run.constraint_ok = True
            run.requires_checked = False
        args = event.args
        plan = rule.dispatch.get((event.method_name, len(args)))
        if plan is None:
            if run.state is not None:
                run.state = None
                found("order", object_id, rule, seq,
                      f"{event.method_name}() is not a declared event")
            continue
        for position, slot in plan.params:
            run[slot] = args[position]
        if plan.return_slot is not None and event.return_id is not None:
            run[plan.return_slot] = Ref(event.return_id)
        # Without a return id the return binding keeps its earlier value, so
        # the constraints only it reaches are skipped by their signature.
        if plan.constraints:
            check_constraints(rule, run, object_id, seq, plan.constraints)
        if run.state is None:
            continue
        state = run.state = rule.automaton.step(run.state, plan.label)
        if state is None:
            found("order", object_id, rule, seq,
                  f"{event.method_name}() breaks the declared call order")
        elif state in rule.automaton.accepting:
            complete(rule, run, object_id, seq)

    for object_id, rule, pred, keys, seq in pending_requires:
        if (pred.name, keys) not in predicates:
            found("missing-predicate", object_id, rule, seq,
                  f"requires {pred.name}[{', '.join(pred.args)}] but no rule established it")

    for rule, runs in tables.values():
        for object_id, run in runs.items():
            if run.state is not None and run.state not in rule.automaton.accepting:
                found("incomplete", object_id, rule, None,
                      "object discarded before completing the declared protocol")

    # Nothing below reads the runs or the stores: freed now, their memory
    # takes the sort's keys.
    for _, runs in tables.values():
        runs.clear()
    predicates.clear()
    pending_requires.clear()
    messages.clear()
    violations.sort(key=lambda v: (v.seq is None, v.seq or 0, v.object_id, v.kind, v.rule_class))
    return CheckResult(violations=violations, warnings=warnings)


def _render_value(value: str | int) -> str:
    """A bound value as a finding message shows it. A string gets JSON string
    escapes, so a line break in it cannot split a row of the table report.

    Only a ``str`` or an ``int`` gets here: a constraint finding needs
    :func:`_judge` to answer False, and :func:`_holds` answers UNKNOWN for a
    :class:`Ref` or the unknown marker.
    """
    if isinstance(value, str):
        return encode_basestring(value)
    return str(value)


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


# Violations rendered per join. Joining a slice at a time holds the blocks of
# one slice, not one string per violation, and joins the whole text once.
_REPORT_SLICE = 256


def report(violations: list[Violation], fmt: str = "json") -> str:
    """Render violations as a JSON document or an aligned text table.

    The JSON schema and layout are in ``docs/formats.md``; identical input
    yields identical bytes. ``emitter.json_text`` writes the counts, and
    ``_VIOLATION_JSON`` each violation in a third of the writer's time.
    """
    if fmt == "json":
        by_kind = {kind: 0 for kind in VIOLATION_KINDS}
        by_rule: dict[str, int] = {}
        for violation in violations:
            by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
            by_rule[violation.rule_class] = by_rule.get(violation.rule_class, 0) + 1
        counts = {"total": len(violations), "by_kind": dict(sorted(by_kind.items())),
                  "by_rule": dict(sorted(by_rule.items()))}
        # The counts without their closing "\n}", then the violations.
        parts = ["".join(json_text(counts))[:-2], ',\n  "violations": [']
        quote = encode_basestring_ascii
        for start in range(0, len(violations), _REPORT_SLICE):
            parts.append(",\n" if start else "\n")
            parts.append(",\n".join([
                _VIOLATION_JSON % (
                    quote(v.kind), quote(v.object_id), "null" if v.seq is None else int.__repr__(v.seq),
                    quote(v.rule_class), quote(v.message),
                )
                for v in violations[start:start + _REPORT_SLICE]
            ]))
        parts.append("\n  ]\n}\n" if violations else "]\n}\n")
        return "".join(parts)
    if fmt != "table":
        raise ValueError(f"unknown report format '{fmt}'")

    headers = ("KIND", "OBJECT", "SEQ", "RULE", "MESSAGE")
    rows = [
        tuple(map(_one_line, (v.kind, v.object_id, "end" if v.seq is None else str(v.seq),
                              v.rule_class, v.message)))
        for v in violations
    ]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    lines.append(f"total: {len(violations)}")
    return "\n".join(lines) + "\n"
