"""Compilation of ORDER expressions into finite automata.

The expression is compiled into an epsilon-NFA (Thompson construction) in
one walk, which compiles an aggregate atom as the alternation of its events.
The DFA over that NFA is determinized on demand, as in RE2: a subset state
is built the first time a word reaches it, so checking a trace costs at most
one NFA subset step per event, however large the full DFA would be. A subset
is an ``int`` bit mask (bit *i* is NFA state *i*), and each label has one
mask of the NFA states that move on it, so a new transition visits only the
set bits of the subset and that mask, and ORs in the epsilon-closure that
each one's move reaches, computed once per labelled NFA state and cached as
a mask. Each DFA state keeps one row, a dict from label to the transition
built for it. ``compile_order`` explores the whole DFA with that same step,
breadth-first over the sorted labels that each state's subset moves on, for
``fsm`` and DOT output; it stops at ``MAX_DFA_STATES``. The DFA keeps an
implicit error sink: a missing transition means the protocol is broken at
that event. No minimization is performed; in an explored DFA, state
numbering is breadth-first from the initial state, which keeps DOT output
stable and explainable.

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

    def closure(self, states: Iterable[int]) -> int:
        """The epsilon-closure of ``states`` as a bit mask."""
        stack = list(states)
        seen = 0
        for state in stack:
            seen |= 1 << state
        while stack:
            for nxt in self.eps[stack.pop()]:
                if not seen >> nxt & 1:
                    seen |= 1 << nxt
                    stack.append(nxt)
        return seen


def build_nfa(order: OrderExpr, aggregates: Iterable[AggregateDecl] = ()) -> Nfa:
    """The Thompson NFA of ``order``, each aggregate atom compiled as its events' alternation."""
    thompson = _Thompson({agg.name: agg.alternatives for agg in aggregates})
    start, accept = thompson.fragment(order)
    return Nfa(start, accept, thompson.eps, thompson.moves)


class _Thompson:
    """The states of a Thompson NFA, made one fragment at a time. A method,
    unlike a recursive closure, leaves no cycle for the collector to free."""

    __slots__ = ("table", "eps", "moves")

    def __init__(self, table: dict[str, tuple[str, ...]]):
        self.table = table
        self.eps: list[list[int]] = []
        self.moves: list[dict[str, list[int]]] = []

    def new_state(self) -> int:
        self.eps.append([])
        self.moves.append({})
        return len(self.eps) - 1

    def atom(self, label: str) -> tuple[int, int]:
        s, e = self.new_state(), self.new_state()
        self.moves[s][label] = [e]
        return s, e

    def alternation(self, parts, compile_part) -> tuple[int, int]:
        s, e = self.new_state(), self.new_state()
        for part in parts:
            ps, pe = compile_part(part)
            self.eps[s].append(ps)
            self.eps[pe].append(e)
        return s, e

    def fragment(self, node: OrderExpr) -> tuple[int, int]:
        eps = self.eps
        if isinstance(node, Atom):
            labels = self.table.get(node.label, (node.label,))
            return self.atom(labels[0]) if len(labels) == 1 else self.alternation(labels, self.atom)
        if isinstance(node, Seq):
            first_s, prev_e = self.fragment(node.parts[0])
            for part in node.parts[1:]:
                s, e = self.fragment(part)
                eps[prev_e].append(s)
                prev_e = e
            return first_s, prev_e
        if isinstance(node, Alt):
            return self.alternation(node.parts, self.fragment)
        # ``?``, ``*``, ``+``: a way around the child unless ``+``, back into it unless ``?``.
        s, e = self.new_state(), self.new_state()
        cs, ce = self.fragment(node.child)
        eps[s].append(cs)
        if not isinstance(node, Plus):
            eps[s].append(e)
        if not isinstance(node, Opt):
            eps[ce].append(cs)
        eps[ce].append(e)
        return s, e


# Largest DFA that ``compile_order`` explores before giving up.
MAX_DFA_STATES = 10_000


class StateLimitError(Exception):
    """The explored DFA would have more than ``MAX_DFA_STATES`` states."""


class TypestateAutomaton:
    """Deterministic typestate automaton over event labels, built on demand.

    A state is the index of an NFA subset in ``subsets``, a bit mask with bit
    *i* set for NFA state *i*; ``initial`` is 0, the closure of the NFA's
    start. ``step`` builds a missing transition the first time it is asked
    for and caches it in the state's row of ``_rows``, the error sink
    (``None``) included. A miss visits the set bits of the subset and the
    label's mask in ``_movers`` and ORs together their entries in ``_after``,
    which maps a label and an NFA state's bit to the closure of that labelled
    move, at most one entry per labelled NFA state. The automaton is
    therefore not immutable: ``subsets``, ``accepting``, the rows and the
    closure cache grow with every new transition taken, also while rules from
    ``compile_rules`` are reused.
    """

    initial = 0

    def __init__(self, nfa: Nfa):
        self.nfa = nfa
        self._movers: dict[str, int] = {}
        for index, labelled in enumerate(nfa.moves):
            for label in labelled:
                self._movers[label] = self._movers.get(label, 0) | 1 << index
        self.alphabet = frozenset(self._movers)
        self._after: dict[str, dict[int, int]] = {label: {} for label in self._movers}
        start = nfa.closure([nfa.start])
        self.subsets: list[int] = [start]
        self.accepting: set[int] = {0} if start >> nfa.accept & 1 else set()
        self._ids = {start: 0}
        self._rows: list[dict[str, int | None]] = [{}]

    @property
    def state_count(self) -> int:
        return len(self.subsets)

    @property
    def transitions(self) -> dict[tuple[int, str], int]:
        """Every transition built so far; a missing key is the error sink."""
        return {(src, label): dst for src, row in enumerate(self._rows)
                for label, dst in row.items() if dst is not None}

    def step(self, state: int, label: str) -> int | None:
        row = self._rows[state]
        try:
            return row[label]
        except KeyError:
            pass
        members = self.subsets[state] & self._movers.get(label, 0)
        after = self._after.get(label)
        target = 0
        while members:
            bit = members & -members
            members ^= bit
            closure = after.get(bit)
            if closure is None:
                closure = after[bit] = self.nfa.closure(self.nfa.moves[bit.bit_length() - 1][label])
            target |= closure
        dst = None
        if target:
            dst = self._ids.get(target)
            if dst is None:
                dst = self._ids[target] = len(self.subsets)
                self.subsets.append(target)
                self._rows.append({})
                if target >> self.nfa.accept & 1:
                    self.accepting.add(dst)
        row[label] = dst
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
    moves = automaton.nfa.moves
    state = 0
    while state < automaton.state_count:
        # Only a label that some NFA state of the subset moves on leaves the
        # error sink, so only those are stepped, in sorted order as before.
        members, labels = automaton.subsets[state], set()
        while members:
            bit = members & -members
            members ^= bit
            labels.update(moves[bit.bit_length() - 1])
        for label in sorted(labels):
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
