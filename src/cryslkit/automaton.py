"""Compilation of ORDER expressions into finite automata.

Aggregates are inlined as alternations and the expression is compiled into
an epsilon-NFA (Thompson construction). The DFA over it is determinized on
demand, as in RE2: a subset state is built the first time a word reaches it,
so checking a trace costs at most one NFA subset step per event, however
large the full DFA would be. ``compile_order`` explores the whole DFA with
that same step, breadth-first over the sorted alphabet, for ``fsm`` and DOT
output; it stops at ``MAX_DFA_STATES``. The DFA keeps an implicit error sink:
a missing transition means the protocol is broken at that event. No
minimization is performed; in an explored DFA, state numbering is
breadth-first from the initial state, which keeps DOT output stable and
explainable.

Every Thompson NFA state can reach the final state, so every subset state,
whenever it is built, can still reach acceptance. ``accepts`` relies on
this: the first missing transition is exactly the first point at which no
accepted word is reachable anymore.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from .diagnostics import Record
from .model import AggregateDecl, Alt, Atom, Opt, OrderExpr, Seq, Star, order_atoms


def inline_aggregates(expr: OrderExpr, aggregates: Iterable[AggregateDecl]) -> OrderExpr:
    """Replace every aggregate atom with the alternation of its events."""
    table = {agg.name: agg.alternatives for agg in aggregates}

    def walk(node: OrderExpr) -> OrderExpr:
        if isinstance(node, Atom):
            alternatives = table.get(node.label)
            if alternatives is None:
                return node
            if len(alternatives) == 1:
                return Atom(alternatives[0])
            return Alt(tuple(Atom(label) for label in alternatives))
        if isinstance(node, (Seq, Alt)):
            return type(node)(tuple(walk(p) for p in node.parts))
        return type(node)(walk(node.child))

    return walk(expr)


class Nfa(Record):
    """Epsilon-NFA with a single start and a single accepting state."""

    start: int
    accept: int
    eps: list[list[int]]
    moves: list[dict[str, list[int]]]

    def closure(self, states: Iterable[int]) -> frozenset[int]:
        seen = set(states)
        stack = list(seen)
        while stack:
            for nxt in self.eps[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def step(self, states: frozenset[int], label: str) -> frozenset[int]:
        reached = [t for s in states for t in self.moves[s].get(label, ())]
        return self.closure(reached) if reached else frozenset()

    def accepts(self, word: Sequence[str]) -> bool:
        current = self.closure({self.start})
        for label in word:
            current = self.step(current, label)
            if not current:
                return False
        return self.accept in current


def build_nfa(expr: OrderExpr) -> Nfa:
    eps: list[list[int]] = []
    moves: list[dict[str, list[int]]] = []

    def new_state() -> int:
        eps.append([])
        moves.append({})
        return len(eps) - 1

    def fragment(node: OrderExpr) -> tuple[int, int]:
        if isinstance(node, Atom):
            s, e = new_state(), new_state()
            moves[s].setdefault(node.label, []).append(e)
            return s, e
        if isinstance(node, Seq):
            first_s, prev_e = fragment(node.parts[0])
            for part in node.parts[1:]:
                s, e = fragment(part)
                eps[prev_e].append(s)
                prev_e = e
            return first_s, prev_e
        if isinstance(node, Alt):
            s, e = new_state(), new_state()
            for part in node.parts:
                ps, pe = fragment(part)
                eps[s].append(ps)
                eps[pe].append(e)
            return s, e
        if isinstance(node, Opt):
            s, e = new_state(), new_state()
            cs, ce = fragment(node.child)
            eps[s] += [cs, e]
            eps[ce].append(e)
            return s, e
        if isinstance(node, Star):
            s, e = new_state(), new_state()
            cs, ce = fragment(node.child)
            eps[s] += [cs, e]
            eps[ce] += [cs, e]
            return s, e
        # Plus: one pass through the child, then loop back.
        s, e = new_state(), new_state()
        cs, ce = fragment(node.child)
        eps[s].append(cs)
        eps[ce] += [cs, e]
        return s, e

    start, accept = fragment(expr)
    return Nfa(start, accept, eps, moves)


# Largest DFA that ``compile_order`` explores before giving up.
MAX_DFA_STATES = 10_000


class StateLimitError(Exception):
    """The explored DFA would have more than ``MAX_DFA_STATES`` states."""


class TypestateAutomaton:
    """Deterministic typestate automaton over event labels, built on demand.

    A state is the index of an NFA subset in ``subsets``; ``initial`` is 0,
    the closure of the NFA's start. ``step`` builds a missing transition the
    first time it is asked for and caches it, the error sink (``None``)
    included. The automaton is therefore not immutable: ``subsets``,
    ``accepting`` and the cache grow with every new transition taken, also
    while a ``RuleSet`` is reused across checks.
    """

    initial = 0

    def __init__(self, nfa: Nfa, alphabet: frozenset[str]):
        self.nfa = nfa
        self.alphabet = alphabet
        start = nfa.closure({nfa.start})
        self.subsets: list[frozenset[int]] = [start]
        self.accepting: set[int] = {0} if nfa.accept in start else set()
        self._ids = {start: 0}
        self._moves: dict[tuple[int, str], int | None] = {}

    @property
    def state_count(self) -> int:
        return len(self.subsets)

    @property
    def transitions(self) -> dict[tuple[int, str], int]:
        """Every transition built so far; a missing key is the error sink."""
        return {key: dst for key, dst in self._moves.items() if dst is not None}

    def step(self, state: int, label: str) -> int | None:
        try:
            return self._moves[state, label]
        except KeyError:
            pass
        target = self.nfa.step(self.subsets[state], label)
        dst = None
        if target:
            dst = self._ids.get(target)
            if dst is None:
                dst = self._ids[target] = len(self.subsets)
                self.subsets.append(target)
                if self.nfa.accept in target:
                    self.accepting.add(dst)
        self._moves[state, label] = dst
        return dst


def lazy_automaton(
    order: OrderExpr, aggregates: Iterable[AggregateDecl] = ()
) -> TypestateAutomaton:
    """The DFA of an ORDER expression with only its initial state built."""
    expr = inline_aggregates(order, aggregates)
    return TypestateAutomaton(build_nfa(expr), frozenset(a.label for a in order_atoms(expr)))


def compile_order(
    order: OrderExpr, aggregates: Iterable[AggregateDecl] = ()
) -> TypestateAutomaton:
    """Compile an ORDER expression (aggregates expanded away) into a full DFA.

    Raises :class:`StateLimitError` once more than ``MAX_DFA_STATES`` states
    have been built.
    """
    automaton = lazy_automaton(order, aggregates)
    alphabet = sorted(automaton.alphabet)
    state = 0
    while state < automaton.state_count:
        for label in alphabet:
            automaton.step(state, label)
        if automaton.state_count > MAX_DFA_STATES:
            raise StateLimitError(f"the DFA has more than {MAX_DFA_STATES} states")
        state += 1
    return automaton


class VerdictKind(Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"
    INCOMPLETE = "incomplete"


class Verdict(Record):
    kind: VerdictKind
    reject_index: int | None = None


def accepts(automaton: TypestateAutomaton, word: Sequence[str]) -> Verdict:
    """Run a word through the automaton.

    ``REJECTED`` with ``reject_index`` i means the i-th label has no
    transition (including labels outside the alphabet); ``INCOMPLETE`` means
    every label was consumed but the protocol did not reach an accepting
    state.
    """
    state = automaton.initial
    for index, label in enumerate(word):
        next_state = automaton.step(state, label)
        if next_state is None:
            return Verdict(VerdictKind.REJECTED, index)
        state = next_state
    if state in automaton.accepting:
        return Verdict(VerdictKind.ACCEPTED)
    return Verdict(VerdictKind.INCOMPLETE)


def to_dot(automaton: TypestateAutomaton) -> str:
    """Render the automaton as a DOT digraph (error sink omitted)."""
    lines = [
        "digraph typestate {",
        "    rankdir=LR;",
        '    __start [shape=point, label=""];',
    ]
    for state in range(automaton.state_count):
        shape = "doublecircle" if state in automaton.accepting else "circle"
        lines.append(f'    s{state} [shape={shape}, label="{state}"];')
    lines.append(f"    __start -> s{automaton.initial};")
    for (src, label), dst in sorted(automaton.transitions.items()):
        lines.append(f'    s{src} -> s{dst} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
