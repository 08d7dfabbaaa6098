"""Compilation of ORDER expressions into finite automata.

The expression is compiled into an epsilon-NFA (Thompson construction) in
one walk, which compiles an aggregate atom as the alternation of its events.
The DFA over that NFA is determinized on demand, as in RE2: a subset state
is built the first time a word reaches it, so checking a trace costs at most
one NFA subset step per event, however large the full DFA would be. The
automaton caches each transition it builds and, per NFA state and label, the
epsilon-closure of where that move leads, so a new transition costs one
union of cached closures. ``compile_order`` explores the whole DFA with that
same step, breadth-first over the sorted alphabet, for ``fsm`` and DOT
output; it stops at ``MAX_DFA_STATES``. The DFA keeps an implicit error
sink: a missing transition means the protocol is broken at that event. No
minimization is performed; in an explored DFA, state numbering is
breadth-first from the initial state, which keeps DOT output stable and
explainable.

Every Thompson NFA state can reach the final state, so every subset state,
whenever it is built, can still reach acceptance: the first missing
transition of a word is exactly where no accepted word stays reachable.
"""

from __future__ import annotations

from typing import Iterable

from .diagnostics import Record
from .model import AggregateDecl, Alt, Atom, Opt, OrderExpr, Plus, Seq


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


def build_nfa(order: OrderExpr, aggregates: Iterable[AggregateDecl] = ()) -> Nfa:
    """The Thompson NFA of ``order``, each aggregate atom compiled as its events' alternation."""
    table = {agg.name: agg.alternatives for agg in aggregates}
    eps: list[list[int]] = []
    moves: list[dict[str, list[int]]] = []

    def new_state() -> int:
        eps.append([])
        moves.append({})
        return len(eps) - 1

    def atom(label: str) -> tuple[int, int]:
        s, e = new_state(), new_state()
        moves[s][label] = [e]
        return s, e

    def alternation(parts, compile_part) -> tuple[int, int]:
        s, e = new_state(), new_state()
        for part in parts:
            ps, pe = compile_part(part)
            eps[s].append(ps)
            eps[pe].append(e)
        return s, e

    def fragment(node: OrderExpr) -> tuple[int, int]:
        if isinstance(node, Atom):
            labels = table.get(node.label, (node.label,))
            return atom(labels[0]) if len(labels) == 1 else alternation(labels, atom)
        if isinstance(node, Seq):
            first_s, prev_e = fragment(node.parts[0])
            for part in node.parts[1:]:
                s, e = fragment(part)
                eps[prev_e].append(s)
                prev_e = e
            return first_s, prev_e
        if isinstance(node, Alt):
            return alternation(node.parts, fragment)
        # ``?``, ``*``, ``+``: a way around the child unless ``+``, back into it unless ``?``.
        s, e = new_state(), new_state()
        cs, ce = fragment(node.child)
        eps[s].append(cs)
        if not isinstance(node, Plus):
            eps[s].append(e)
        if not isinstance(node, Opt):
            eps[ce].append(cs)
        eps[ce].append(e)
        return s, e

    start, accept = fragment(order)
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
    included. A miss unions the members' entries in ``_after``, which maps a
    label and an NFA state to the epsilon-closure of that labelled move, at
    most one entry per labelled NFA state. The automaton is therefore not
    immutable: ``subsets``, ``accepting`` and both caches grow with every new
    transition taken, also while rules from ``compile_rules`` are reused.
    """

    initial = 0

    def __init__(self, nfa: Nfa):
        self.nfa = nfa
        self.alphabet = frozenset(label for labelled in nfa.moves for label in labelled)
        start = nfa.closure({nfa.start})
        self.subsets: list[frozenset[int]] = [start]
        self.accepting: set[int] = {0} if nfa.accept in start else set()
        self._ids = {start: 0}
        self._moves: dict[tuple[int, str], int | None] = {}
        self._after: dict[str, dict[int, frozenset[int]]] = {}

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
        moves, after = self.nfa.moves, self._after.setdefault(label, {})
        reached = []
        for member in self.subsets[state]:
            if label in moves[member]:
                closure = after.get(member)
                if closure is None:
                    closure = after[member] = self.nfa.closure(moves[member][label])
                reached.append(closure)
        target = frozenset().union(*reached)
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
    return TypestateAutomaton(build_nfa(order, aggregates))


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
