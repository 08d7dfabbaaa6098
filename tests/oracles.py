"""Independent oracles and random generators used by the test suite.

The language oracle enumerates the set of words an order expression denotes
(up to a length bound) directly from the expression tree; the derivative
matcher decides membership and prefix viability structurally. Neither goes
anywhere near the NFA/DFA construction they are used to check. The NFA
simulation does use the Thompson NFA, but recomputes every subset and
epsilon-closure from scratch as a ``frozenset``, so it checks the lazy DFA's
caches and bit masks; ``reference_explore`` builds the whole DFA that way.
``dfa_verdict`` is no oracle: it walks the automaton under test and puts
its verdict in the derivative matcher's form, for one comparison.

The reference checker re-judges every constraint of a rule at every matched
event and matches events by a linear scan over the declarations; the
checker in ``cryslkit.tracecheck`` must report exactly what it reports. It
keeps each object's bindings in a dict of names to values, judges,
renders and identifies them, and locates its warnings, by its own reading
of docs/grammar.md and docs/formats.md; of the checker it uses only the
record types. The
reference report builds the whole JSON document and lets ``json.dumps``
indent it; ``cryslkit.tracecheck.report`` must give the same bytes.

The reference file layer reads a source with ``Path.read_text`` and lists
rule files with ``Path.iterdir``, ``is_file`` and ``is_dir``, as the build
did before it read plain path strings; the string-based reader and listing
must give the same sources, errors and lists.

The reference token patterns are the parser's with every possessive repeat
made greedy; both must split every text alike.
"""

from __future__ import annotations

import json
import random
import re
import string
from pathlib import Path
from types import SimpleNamespace

from cryslkit.automaton import Nfa, build_nfa
from cryslkit.diagnostics import Diagnostic, Loc, Severity
from cryslkit.emitter import render_constraint
from cryslkit.parsing import LANGUAGE_BY_EXTENSION, ParseError, SourceFile, undecodable_byte
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
# NFA simulation: subset steps recomputed from scratch, nothing cached
# ---------------------------------------------------------------------------


def nfa_closure(nfa: Nfa, states) -> frozenset[int]:
    """Every NFA state reachable from ``states`` over epsilon edges alone."""
    seen = set(states)
    frontier = list(seen)
    while frontier:
        frontier = [t for s in frontier for t in nfa.eps[s] if t not in seen]
        seen.update(frontier)
    return frozenset(seen)


def nfa_step(nfa: Nfa, states: frozenset[int], label: str) -> frozenset[int]:
    """The closure of every state one ``label`` move away from ``states``."""
    return nfa_closure(nfa, [t for s in states for t in nfa.moves[s].get(label, ())])


def nfa_accepts(nfa: Nfa, word) -> bool:
    current = nfa_closure(nfa, [nfa.start])
    for label in word:
        current = nfa_step(nfa, current, label)
    return nfa.accept in current


def mask_states(mask: int) -> frozenset[int]:
    """The NFA states of a DFA subset kept as a bit mask: bit i is state i."""
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def reference_explore(order: OrderExpr, aggregates=()) -> SimpleNamespace:
    """The full DFA of ``order``, explored breadth-first over the sorted
    alphabet with ``nfa_step``, in the form ``to_dot`` reads: ``initial``,
    ``state_count``, ``accepting`` and ``transitions`` (error sink left out).
    """
    nfa = build_nfa(order, aggregates)
    alphabet = sorted({label for moves in nfa.moves for label in moves})
    subsets = [nfa_closure(nfa, [nfa.start])]
    ids = {subsets[0]: 0}
    transitions = {}
    for src, subset in enumerate(subsets):  # grows while it is walked
        for label in alphabet:
            target = nfa_step(nfa, subset, label)
            if target:
                if target not in ids:
                    ids[target] = len(subsets)
                    subsets.append(target)
                transitions[src, label] = ids[target]
    accepting = {i for i, subset in enumerate(subsets) if nfa.accept in subset}
    return SimpleNamespace(initial=0, state_count=len(subsets), accepting=accepting,
                           transitions=transitions)


def dfa_verdict(automaton, word) -> tuple[str, int | None]:
    """``word`` walked through ``automaton.step``, in ``derivative_verdict``'s
    form: rejected at the first label without a transition, labels outside
    the alphabet included; else accepted or incomplete by the state reached."""
    state = automaton.initial
    for index, label in enumerate(word):
        state = automaton.step(state, label)
        if state is None:
            return "rejected", index
    return ("accepted" if state in automaton.accepting else "incomplete"), None


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
    """A random structurally valid concrete rule, located at 1:1 of the file
    ``<class name>.crysl``. Its constraints and predicates have locations of
    their own in that file, on lines 10, 20 and 30 onwards, drawn from
    nothing random."""
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

    # Constraints and predicates are drawn first and located once the class
    # name, drawn last, names their file.
    drawn_constraints = []
    for _ in range(rng.randint(0, 3)):
        var = rng.choice(var_names)
        values = LiteralSet(
            frozenset(
                rng.sample(("AES", "DES", "SHA-256", 128, 192, 256, 0), rng.randint(1, 4))
            )
        )
        other = None
        if rng.random() < 0.3:
            other = Membership(
                rng.choice(var_names), LiteralSet(frozenset({rng.randint(1, 64)}))
            )
        drawn_constraints.append((var, values, other))

    def predicates(prefix: str, count: int):
        return [
            (f"{prefix}{i}", tuple(rng.sample(var_names, rng.randint(1, min(2, len(var_names))))))
            for i in range(count)
        ]

    drawn_requires = predicates("needs", rng.randint(0, 2))
    drawn_ensures = predicates("gives", rng.randint(0, 2))

    class_name = rng.choice(
        ("java.security.MessageDigest", "javax.crypto.Cipher", "com.example.Api", "Digest")
    )
    path = f"{class_name}.crysl"
    constraints = []
    for line, (var, values, other) in enumerate(drawn_constraints, start=10):
        member = Membership(var, values, loc=Loc(path, line, 5))
        constraints.append(member if other is None else Implication(member, other, loc=member.loc))

    def located(drawn: list, line: int):
        return tuple(PredicateRef(name, args, loc=Loc(path, line + i, 5))
                     for i, (name, args) in enumerate(drawn))

    return CrySLSpec(
        class_name=class_name,
        objects=objects,
        events=events,
        aggregates=aggregates,
        order=order,
        constraints=tuple(constraints),
        requires=located(drawn_requires, 20),
        ensures=located(drawn_ensures, 30),
        loc=Loc(path, 1, 1),
    )


def random_label_alphabet(rng: random.Random, max_size: int = 4) -> list[str]:
    size = rng.randint(1, max_size)
    return list(string.ascii_lowercase[:size])


# ---------------------------------------------------------------------------
# Reference trace checker: every constraint at every event, linear matching
# ---------------------------------------------------------------------------


def _membership_outcome(membership: Membership, env: dict):
    """``x in {…}`` as docs/grammar.md states it: unknown for a reference or
    the unknown marker, else whether the set holds the value."""
    value = env[membership.var]
    if value is UNKNOWN or isinstance(value, Ref):
        return UNKNOWN
    return value in membership.values.values


def _constraint_outcome(constraint, env: dict):
    """True, False or UNKNOWN, by the three-valued ``p => q`` of
    docs/grammar.md."""
    if isinstance(constraint, Membership):
        return _membership_outcome(constraint, env)
    premise = _membership_outcome(constraint.lhs, env)
    conclusion = _membership_outcome(constraint.rhs, env)
    if premise is False:
        return True
    if premise is True:
        return conclusion
    return True if conclusion is True else UNKNOWN


def _shown(value) -> str:
    """A bound value as docs/formats.md says a finding message shows it."""
    if isinstance(value, Ref):
        return f"ref:{value.id}"
    if value is UNKNOWN:
        return "?"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    return str(value)


def _warning(loc, seq: int, object_id: str, text: str) -> Diagnostic:
    """A warning where docs/formats.md puts it: at the undecided constraint
    or REQUIRES predicate, in the file that declares it (``<rule>``:1:1 for
    one built without a location)."""
    path, line, column = (loc.path, loc.line, loc.col) if loc else ("<rule>", 1, 1)
    return Diagnostic(path, line, column, Severity.WARNING,
                      f"seq {seq}: {object_id}: cannot {text} (unknown value)")


def _identity(env: dict, name: str):
    """A predicate argument's identity, or None when it has none."""
    value = env.get(name, UNKNOWN)
    if value is UNKNOWN:
        return None
    return value.id if isinstance(value, Ref) else value


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
    warnings: list[Diagnostic] = []
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
            outcome = _constraint_outcome(constraint, run.env)
            if outcome is True:
                continue
            rendered = render_constraint(constraint)
            if outcome is UNKNOWN:
                warnings.append(_warning(constraint.loc, event.seq, run.object_id,
                                         f"decide '{rendered}'"))
                continue
            run.constraint_ok = False
            bindings = ", ".join(
                f"{name} = {_shown(run.env[name])}" for name in sorted(names)
            )
            violations.append(Violation("constraint", run.object_id, event.seq,
                                        spec.class_name, f"{bindings} violates '{rendered}'"))

    def complete(run: _Run, event: TraceEvent) -> None:
        spec = run.rule.spec
        if run.constraint_ok:
            for pred in spec.ensures:
                keys = [_identity(run.env, arg) for arg in pred.args]
                if all(k is not None for k in keys):
                    predicates.add((pred.name, tuple(keys)))
        if not run.requires_checked:
            run.requires_checked = True
            for pred in spec.requires:
                keys = [_identity(run.env, arg) for arg in pred.args]
                if any(k is None for k in keys):
                    warnings.append(_warning(pred.loc, event.seq, run.object_id,
                                             f"check requires {pred.name}[{', '.join(pred.args)}]"))
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


# ---------------------------------------------------------------------------
# Reference file layer: pathlib reads and listings
# ---------------------------------------------------------------------------


def reference_read_source(path: str | Path) -> SourceFile:
    """``SourceFile.from_path`` as it was before the one binary read, with a
    leading byte-order mark skipped, as the ``utf-8-sig`` codec skips it."""
    path = Path(path)
    language = LANGUAGE_BY_EXTENSION.get(path.suffix)
    if language is None:
        raise ValueError(str(path), f"unknown rule-file extension '{path.suffix}'")
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        text = path.read_text(encoding="utf-8-sig", errors="surrogateescape")
        at, message = undecodable_byte(text)
        line_start = text.rfind("\n", 0, at)
        raise ParseError(
            Loc(str(path), text.count("\n", 0, at) + 1, at - line_start), message
        ) from None
    return SourceFile(str(path), text, language)


def reference_rule_files(path: Path, suffixes: tuple[str, ...]) -> list[Path]:
    """``rule_files`` as it was before the one ``os.scandir`` per directory."""
    if path.is_file():
        return [path]
    files = [p for p in path.iterdir() if p.is_file() and p.suffix in suffixes]
    files += [p for sub in path.iterdir() if sub.is_dir()
              for p in sub.iterdir() if p.is_file() and p.suffix in suffixes]
    return sorted(files, key=lambda p: p.as_posix())


# ---------------------------------------------------------------------------
# Reference token patterns: greedy repeats
# ---------------------------------------------------------------------------

GREEDY_TOKEN_RE = re.compile(
    r'([ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*)'
    r'([A-Za-z_][A-Za-z0-9_]*|[0-9]+|"(?:[^"\\\n]|\\.)*"|"[^\n]*|.|\Z)'
)
GREEDY_CONFIG_TOKEN_RE = re.compile(
    r'([ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*)([A-Za-z_][A-Za-z0-9_]*|[0-9]+|.|\Z)'
)
