"""Independent oracles and random generators used by the test suite.

The language oracle enumerates the set of words an order expression denotes
(up to a length bound) directly from the expression tree; the derivative
matcher decides membership and prefix viability structurally. Neither goes
anywhere near the NFA/DFA construction they are used to check.

The reference checker re-judges every constraint of a rule at every matched
event and matches events by a linear scan over the declarations; the
checker in ``cryslkit.tracecheck`` must report exactly what it reports. The
reference report builds the whole JSON document and lets ``json.dumps``
indent it; ``cryslkit.tracecheck.report`` must give the same bytes.
"""

from __future__ import annotations

import json
import random
import string

from cryslkit.emitter import render_constraint
from cryslkit.model import (
    AggregateDecl,
    Alt,
    Atom,
    CrySLSpec,
    EventDecl,
    Implication,
    LiteralArg,
    LiteralSet,
    Membership,
    ObjectDecl,
    Opt,
    OrderExpr,
    Plus,
    PredicateRef,
    Seq,
    Star,
    VarRef,
    Wildcard,
    constraint_memberships,
)
from cryslkit.tracecheck import (
    UNKNOWN,
    CheckResult,
    CompiledRule,
    Ref,
    TraceEvent,
    Violation,
    _eval_constraint,
    _render_value,
    _value_key,
)

# ---------------------------------------------------------------------------
# Enumeration oracle: language of an expression up to a word-length bound
# ---------------------------------------------------------------------------


def enumerate_language(expr: OrderExpr, max_len: int) -> set[tuple[str, ...]]:
    """All words of length <= max_len in the expression's language."""

    def concat(left: set, right: set) -> set:
        return {
            u + v for u in left for v in right if len(u) + len(v) <= max_len
        }

    def lang(node: OrderExpr) -> set:
        if isinstance(node, Atom):
            return {(node.label,)} if max_len >= 1 else set()
        if isinstance(node, Seq):
            result = {()}
            for part in node.parts:
                result = concat(result, lang(part))
            return result
        if isinstance(node, Alt):
            out: set = set()
            for part in node.parts:
                out |= lang(part)
            return out
        if isinstance(node, Opt):
            return lang(node.child) | {()}
        if isinstance(node, Star):
            base = lang(node.child)
            result = {()}
            frontier = {()}
            while frontier:
                grown = concat(frontier, base) - result
                result |= grown
                frontier = grown
            return result
        # Plus
        return concat(lang(node.child), lang(Star(node.child)))

    return lang(expr)


def all_words(alphabet: list[str], max_len: int):
    """Every word over the alphabet up to the length bound, shortest first."""
    frontier: list[tuple[str, ...]] = [()]
    yield ()
    for _ in range(max_len):
        frontier = [word + (label,) for word in frontier for label in alphabet]
        yield from frontier


# ---------------------------------------------------------------------------
# Derivative matcher: three-way verdicts without automata
# ---------------------------------------------------------------------------

_EMPTY = ("empty",)  # denotes the empty language
_EPSILON = ("epsilon",)  # denotes {""}


def _seq2(a, b):
    if a == _EMPTY or b == _EMPTY:
        return _EMPTY
    if a == _EPSILON:
        return b
    if b == _EPSILON:
        return a
    return ("seq", a, b)


def _alt2(a, b):
    if a == _EMPTY:
        return b
    if b == _EMPTY:
        return a
    if a == b:
        return a
    return ("alt", a, b)


def _convert(expr: OrderExpr):
    if isinstance(expr, Atom):
        return ("atom", expr.label)
    if isinstance(expr, Seq):
        node = _convert(expr.parts[0])
        for part in expr.parts[1:]:
            node = _seq2(node, _convert(part))
        return node
    if isinstance(expr, Alt):
        node = _convert(expr.parts[0])
        for part in expr.parts[1:]:
            node = _alt2(node, _convert(part))
        return node
    if isinstance(expr, Opt):
        return _alt2(_EPSILON, _convert(expr.child))
    if isinstance(expr, Star):
        return ("star", _convert(expr.child))
    return _seq2(_convert(expr.child), ("star", _convert(expr.child)))


def _nullable(node) -> bool:
    tag = node[0]
    if tag in ("empty", "atom"):
        return False
    if tag in ("epsilon", "star"):
        return True
    if tag == "seq":
        return _nullable(node[1]) and _nullable(node[2])
    return _nullable(node[1]) or _nullable(node[2])


def _derive(node, label: str):
    tag = node[0]
    if tag in ("empty", "epsilon"):
        return _EMPTY
    if tag == "atom":
        return _EPSILON if node[1] == label else _EMPTY
    if tag == "alt":
        return _alt2(_derive(node[1], label), _derive(node[2], label))
    if tag == "star":
        return _seq2(_derive(node[1], label), node)
    # seq
    first = _seq2(_derive(node[1], label), node[2])
    if _nullable(node[1]):
        return _alt2(first, _derive(node[2], label))
    return first


def derivative_verdict(expr: OrderExpr, word) -> tuple[str, int | None]:
    """('accepted'|'incomplete'|'rejected', reject_index) via derivatives.

    The smart constructors normalize the empty language away, so a non-empty
    node always denotes a non-empty language; that makes prefix viability a
    structural check.
    """
    node = _convert(expr)
    for index, label in enumerate(word):
        node = _derive(node, label)
        if node == _EMPTY:
            return "rejected", index
    if _nullable(node):
        return "accepted", None
    return "incomplete", None


# ---------------------------------------------------------------------------
# Random generators (deterministic under a seeded Random)
# ---------------------------------------------------------------------------


def random_order_expr(rng: random.Random, alphabet: list[str], depth: int) -> OrderExpr:
    if depth <= 0:
        return Atom(rng.choice(alphabet))
    kind = rng.choice(("atom", "seq", "alt", "opt", "star", "plus"))
    if kind == "atom":
        return Atom(rng.choice(alphabet))
    if kind in ("seq", "alt"):
        count = rng.randint(2, 3)
        parts = tuple(random_order_expr(rng, alphabet, depth - 1) for _ in range(count))
        return Seq(parts) if kind == "seq" else Alt(parts)
    child = random_order_expr(rng, alphabet, depth - 1)
    return {"opt": Opt, "star": Star, "plus": Plus}[kind](child)


_TYPES = ("byte[]", "int", "java.lang.String", "char[]", "java.security.Key")


def random_spec(rng: random.Random) -> CrySLSpec:
    """A random structurally valid concrete rule."""
    n_objects = rng.randint(1, 5)
    objects = tuple(
        ObjectDecl(rng.choice(_TYPES), f"v{i}") for i in range(n_objects)
    )
    var_names = [o.var_name for o in objects]

    n_events = rng.randint(1, 5)
    events = []
    for i in range(n_events):
        params = []
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.4:
                params.append(VarRef(rng.choice(var_names)))
            elif roll < 0.6:
                params.append(Wildcard())
            elif roll < 0.8:
                params.append(LiteralArg(rng.randint(0, 999)))
            else:
                params.append(LiteralArg(rng.choice(("AES", "SHA-256", "x"))))
        return_binding = rng.choice(var_names) if rng.random() < 0.3 else None
        method = rng.choice(("getInstance", "update", "doFinal", "init", "reset"))
        events.append(EventDecl(f"e{i}", return_binding, method, tuple(params)))
    events = tuple(events)
    labels = [e.label for e in events]

    aggregates = []
    if len(labels) >= 2 and rng.random() < 0.5:
        count = rng.randint(2, len(labels))
        aggregates.append(AggregateDecl("Agg0", tuple(rng.sample(labels, count))))
    aggregates = tuple(aggregates)

    atoms = labels + [a.name for a in aggregates]
    order = random_order_expr(rng, atoms, rng.randint(0, 3))

    constraints = []
    for _ in range(rng.randint(0, 3)):
        var = rng.choice(var_names)
        values = LiteralSet(
            frozenset(
                rng.sample(("AES", "DES", "SHA-256", 128, 192, 256, 0), rng.randint(1, 4))
            )
        )
        member = Membership(var, values)
        if rng.random() < 0.3:
            other = Membership(
                rng.choice(var_names), LiteralSet(frozenset({rng.randint(1, 64)}))
            )
            constraints.append(Implication(member, other))
        else:
            constraints.append(member)
    constraints = tuple(constraints)

    def predicates(prefix: str, count: int):
        return tuple(
            PredicateRef(
                f"{prefix}{i}",
                tuple(rng.sample(var_names, rng.randint(1, min(2, len(var_names))))),
            )
            for i in range(count)
        )

    requires = predicates("needs", rng.randint(0, 2))
    ensures = predicates("gives", rng.randint(0, 2))

    class_name = rng.choice(
        ("java.security.MessageDigest", "javax.crypto.Cipher", "com.example.Api", "Digest")
    )
    return CrySLSpec(
        class_name=class_name,
        objects=objects,
        events=events,
        aggregates=aggregates,
        order=order,
        constraints=constraints,
        requires=requires,
        ensures=ensures,
    )


def random_label_alphabet(rng: random.Random, max_size: int = 4) -> list[str]:
    size = rng.randint(1, max_size)
    return list(string.ascii_lowercase[:size])


# ---------------------------------------------------------------------------
# Reference trace checker: every constraint at every event, linear matching
# ---------------------------------------------------------------------------


class _Run:
    # A plain class: the benchmark loads this file by path, without the
    # sys.modules entry a dataclass needs.
    def __init__(self, rule, object_id: str, state: int):
        self.rule = rule
        self.object_id = object_id
        self.state = state
        self.broken = False
        self.env: dict = {}
        self.evaluated: dict = {}
        self.constraint_ok = True
        self.requires_checked = False


def reference_check_trace(rules: dict[str, CompiledRule], trace: list[TraceEvent]) -> CheckResult:
    """``check_trace`` as it was before the per-rule dispatch and constraint
    index: the findings and warnings of both must be identical."""
    violations: list[Violation] = []
    warnings: list[str] = []
    predicates: set = set()
    runs: dict = {}
    pending_requires: list = []

    def check_constraints(run: _Run, event: TraceEvent) -> None:
        spec = run.rule.spec
        for index, constraint in enumerate(spec.constraints):
            names = {m.var for m in constraint_memberships(constraint)}
            if not names <= set(run.env):
                continue
            signature = tuple(run.env[name] for name in sorted(names))
            if run.evaluated.get(index) == signature:
                continue
            run.evaluated[index] = signature
            outcome = _eval_constraint(constraint, run.env)
            if outcome is True:
                continue
            rendered = render_constraint(constraint)
            if outcome is UNKNOWN:
                warnings.append(
                    f"seq {event.seq}: {run.object_id}: cannot decide '{rendered}' "
                    "(unknown value)"
                )
                continue
            run.constraint_ok = False
            bindings = ", ".join(
                f"{name} = {_render_value(run.env[name])}" for name in sorted(names)
            )
            violations.append(Violation("constraint", run.object_id, event.seq,
                                        spec.class_name, f"{bindings} violates '{rendered}'"))

    def complete(run: _Run, event: TraceEvent) -> None:
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
                    warnings.append(
                        f"seq {event.seq}: {run.object_id}: cannot check requires "
                        f"{pred.name}[{', '.join(pred.args)}] (unknown value)"
                    )
                    continue
                pending_requires.append((run, pred.name, pred.args, tuple(keys), event.seq))

    for event in sorted(trace, key=lambda e: e.seq):
        rule = rules.get(event.class_name)
        if rule is None:
            continue
        key = (event.object_id, rule.spec.class_name)
        if key not in runs:
            runs[key] = _Run(rule, event.object_id, rule.automaton.initial)
        run = runs[key]
        decl = next(
            (d for d in rule.spec.events
             if d.method_name == event.method_name and len(d.params) == len(event.args)),
            None,
        )
        if decl is None:
            if not run.broken:
                run.broken = True
                violations.append(Violation("order", run.object_id, event.seq, rule.spec.class_name,
                                            f"{event.method_name}() is not a declared event"))
            continue
        for param, value in zip(decl.params, event.args):
            if isinstance(param, VarRef):
                run.env[param.name] = value
        if decl.return_binding is not None and event.return_id is not None:
            run.env[decl.return_binding] = Ref(event.return_id)
        check_constraints(run, event)
        if run.broken:
            continue
        next_state = rule.automaton.step(run.state, decl.label)
        if next_state is None:
            run.broken = True
            violations.append(Violation("order", run.object_id, event.seq, rule.spec.class_name,
                                        f"{event.method_name}() breaks the declared call order"))
            continue
        run.state = next_state
        if run.state in rule.automaton.accepting:
            complete(run, event)

    for run, name, args, keys, seq in pending_requires:
        if (name, keys) not in predicates:
            violations.append(Violation(
                "missing-predicate", run.object_id, seq, run.rule.spec.class_name,
                f"requires {name}[{', '.join(args)}] but no rule established it"))

    for key in sorted(runs):
        run = runs[key]
        if run.broken or run.state in run.rule.automaton.accepting:
            continue
        violations.append(Violation("incomplete", run.object_id, None, run.rule.spec.class_name,
                                    "object discarded before completing the declared protocol"))

    violations.sort(key=lambda v: (v.seq is None, v.seq or 0, v.object_id, v.kind))
    return CheckResult(violations=violations, warnings=warnings)


# ---------------------------------------------------------------------------
# Reference report: the whole document through json.dumps
# ---------------------------------------------------------------------------


def reference_report(violations: list[Violation]) -> str:
    """``report(violations, "json")`` as it was before the direct encoder."""
    by_kind = {kind: 0 for kind in ("constraint", "incomplete", "missing-predicate", "order")}
    by_rule: dict = {}
    for violation in violations:
        by_kind[violation.kind] = by_kind.get(violation.kind, 0) + 1
        by_rule[violation.rule_class] = by_rule.get(violation.rule_class, 0) + 1
    payload = {
        "total": len(violations),
        "by_kind": dict(sorted(by_kind.items())),
        "by_rule": dict(sorted(by_rule.items())),
        "violations": [
            {"kind": v.kind, "object_id": v.object_id, "seq": v.seq, "rule": v.rule_class,
             "message": v.message}
            for v in violations
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
