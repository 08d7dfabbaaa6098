from __future__ import annotations

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from cryslkit import (
    SourceFile,
    build_nfa,
    check_trace,
    compile_order,
    compile_rules,
    lazy_automaton,
    parse_crysl,
    to_dot,
)
from cryslkit.automaton import (
    MAX_DFA_STATES,
    Nfa,
    StateLimitError,
    TypestateAutomaton,
)
from cryslkit.model import AggregateDecl, Alt, Atom, Opt, Plus, Seq, Star, order_atoms
from cryslkit.tracecheck import TraceEvent

from conftest import MESSAGEDIGEST_RULE, wide_rule_text
from oracles import (
    all_words,
    derivative_verdict,
    dfa_verdict,
    enumerate_language,
    mask_states,
    nfa_accepts,
    nfa_closure,
    nfa_step,
    random_label_alphabet,
    random_order_expr,
    reference_explore,
)


@pytest.fixture(scope="module")
def digest_rule():
    return parse_crysl(SourceFile.for_text(MESSAGEDIGEST_RULE, "crysl"))


@pytest.fixture(scope="module")
def digest_automaton(digest_rule):
    return compile_order(digest_rule.order, digest_rule.aggregates)


def test_aggregates_expand_to_alternations(digest_rule):
    expanded = Seq((Alt((Atom("g1"), Atom("g2"))), Plus(Atom("u1")), Atom("d1")))
    assert build_nfa(digest_rule.order, digest_rule.aggregates) == build_nfa(expanded)


def _expand(node, table):
    """``node`` with each aggregate atom replaced by the alternation of its
    events, or by the event's atom for a one-event aggregate."""
    if isinstance(node, Atom):
        labels = table.get(node.label)
        if labels is None:
            return node
        return Atom(labels[0]) if len(labels) == 1 else Alt(tuple(map(Atom, labels)))
    if isinstance(node, (Seq, Alt)):
        return type(node)(tuple(_expand(part, table) for part in node.parts))
    return type(node)(_expand(node.child, table))


def test_aggregates_compile_as_the_expanded_tree():
    rng = random.Random(18)
    one_event = 0
    for _ in range(300):
        expr = random_order_expr(rng, random_label_alphabet(rng), rng.randint(0, 4))
        labels = sorted({atom.label for atom in order_atoms(expr)})
        names = rng.sample(labels, rng.randint(0, len(labels)))
        # An aggregate lists declared events: the tree's other labels and fresh ones.
        events = [label for label in labels if label not in names] + ["x", "y", "z"]
        aggregates = tuple(
            AggregateDecl(name, tuple(rng.sample(events, rng.randint(1, 3)))) for name in names
        )
        one_event += sum(len(agg.alternatives) == 1 for agg in aggregates)
        expanded = _expand(expr, {agg.name: agg.alternatives for agg in aggregates})
        assert build_nfa(expr, aggregates) == build_nfa(expanded), (expr, aggregates)
        alphabet = {atom.label for atom in order_atoms(expanded)}
        assert lazy_automaton(expr, aggregates).alphabet == alphabet, (expr, aggregates)
    assert one_event > 0


def test_digest_protocol_words(digest_automaton):
    assert dfa_verdict(digest_automaton, ["g1", "u1", "d1"]) == ("accepted", None)
    assert dfa_verdict(digest_automaton, ["g2", "u1", "u1", "d1"]) == ("accepted", None)
    assert dfa_verdict(digest_automaton, ["g1", "d1"]) == ("rejected", 1)
    assert dfa_verdict(digest_automaton, ["g1", "u1"]) == ("incomplete", None)


def test_label_outside_alphabet_is_rejected_at_index(digest_automaton):
    assert dfa_verdict(digest_automaton, ["g1", "reset", "d1"]) == ("rejected", 1)


def test_single_atom_automaton():
    automaton = compile_order(Atom("c"))
    assert automaton.state_count == 2
    assert dfa_verdict(automaton, ["c"]) == ("accepted", None)
    assert dfa_verdict(automaton, []) == ("incomplete", None)
    assert dfa_verdict(automaton, ["c", "c"]) == ("rejected", 1)


def test_optional_operator_semantics():
    automaton = compile_order(Opt(Atom("e")))
    assert dfa_verdict(automaton, []) == ("accepted", None)
    assert dfa_verdict(automaton, ["e"]) == ("accepted", None)
    assert dfa_verdict(automaton, ["e", "e"]) == ("rejected", 1)


def test_automaton_is_deterministic_and_reachable(digest_automaton):
    seen_pairs = set()
    reachable = {digest_automaton.initial}
    for (src, label), dst in digest_automaton.transitions.items():
        assert (src, label) not in seen_pairs
        seen_pairs.add((src, label))
    # breadth-first closure over the transition table
    changed = True
    while changed:
        changed = False
        for (src, _), dst in digest_automaton.transitions.items():
            if src in reachable and dst not in reachable:
                reachable.add(dst)
                changed = True
    assert reachable == set(range(digest_automaton.state_count))


def test_dfa_matches_enumeration_oracle_on_random_expressions():
    rng = random.Random(1)
    for _ in range(60):
        alphabet = random_label_alphabet(rng)
        expr = random_order_expr(rng, alphabet, rng.randint(0, 4))
        automaton = compile_order(expr)
        language = enumerate_language(expr, 5)
        for word in all_words(alphabet, 5):
            expected = word in language
            got = dfa_verdict(automaton, word)[0] == "accepted"
            assert got == expected, (expr, word)


def test_nfa_and_dfa_agree_on_exhaustive_word_sets():
    rng = random.Random(2)
    for _ in range(40):
        alphabet = random_label_alphabet(rng)
        expr = random_order_expr(rng, alphabet, rng.randint(0, 4))
        nfa = build_nfa(expr)
        dfa = compile_order(expr)
        for word in all_words(alphabet, 5):
            assert nfa_accepts(nfa, word) == (dfa_verdict(dfa, word)[0] == "accepted")


def test_three_way_verdict_matches_derivative_oracle():
    rng = random.Random(3)
    for _ in range(60):
        alphabet = random_label_alphabet(rng)
        expr = random_order_expr(rng, alphabet, rng.randint(0, 4))
        automaton = compile_order(expr)
        for word in all_words(alphabet, 5):
            assert dfa_verdict(automaton, word) == derivative_verdict(expr, word), (expr, word)


# ---------------------------------------------------------------------------
# On-demand determinization
# ---------------------------------------------------------------------------

_LABELS = ("a", "b", "c")

order_trees = st.recursive(
    st.sampled_from(_LABELS).map(Atom),
    lambda child: st.one_of(
        st.lists(child, min_size=2, max_size=3).map(lambda parts: Seq(tuple(parts))),
        st.lists(child, min_size=2, max_size=3).map(lambda parts: Alt(tuple(parts))),
        child.map(Opt),
        child.map(Star),
        child.map(Plus),
    ),
    max_leaves=8,
)
# "z" lies outside every tree's alphabet.
words = st.lists(st.sampled_from(_LABELS + ("z",)), max_size=7)


@settings(max_examples=300, deadline=None)
@given(order_trees, st.lists(words, min_size=1, max_size=5))
def test_on_demand_steps_agree_with_explored_dfa_and_oracle(expr, word_list):
    # One lazy automaton serves every word, as one rule serves every object
    # of a trace, so later words run through a partly built cache.
    lazy = lazy_automaton(expr)
    explored = compile_order(expr)
    for word in word_list:
        expected = derivative_verdict(expr, word)
        assert dfa_verdict(lazy, word) == dfa_verdict(explored, word) == expected, (expr, word)
    # State numbers follow the order of discovery; the subsets themselves agree.
    assert set(lazy.subsets) <= set(explored.subsets)


@settings(max_examples=300, deadline=None)
@given(order_trees, st.lists(words, min_size=1, max_size=5))
def test_lazy_subsets_are_the_closures_an_uncached_simulation_builds(expr, word_list):
    lazy = lazy_automaton(expr)
    taken = set()  # every (state, label) a word stepped from, the error sink included
    for word in word_list:
        state = lazy.initial
        for label in word:
            taken.add((state, label))
            state = lazy.step(state, label)
            if state is None:
                break
    nfa = lazy.nfa
    subsets = [mask_states(mask) for mask in lazy.subsets]
    assert subsets[lazy.initial] == nfa_closure(nfa, [nfa.start])
    assert len(set(subsets)) == len(subsets)
    transitions = lazy.transitions
    assert set(transitions) <= taken
    for src, label in taken:
        expected = nfa_step(nfa, subsets[src], label)
        dst = transitions.get((src, label))  # missing: the error sink, None
        assert (subsets[dst] if dst is not None else frozenset()) == expected, (expr, label)
        assert lazy.step(src, label) == dst


@st.composite
def trees_with_aggregates(draw):
    """An ORDER tree and aggregates named after some of its labels, each
    listing one to three events: the tree's other labels or fresh ones."""
    tree = draw(order_trees)
    labels = sorted({atom.label for atom in order_atoms(tree)})
    names = draw(st.lists(st.sampled_from(labels), unique=True))
    events = [label for label in labels if label not in names] + ["x", "y", "z"]
    aggregates = tuple(
        AggregateDecl(name, tuple(draw(st.lists(st.sampled_from(events), min_size=1, max_size=3,
                                                unique=True))))
        for name in names
    )
    return tree, aggregates


@settings(max_examples=300, deadline=None)
@given(trees_with_aggregates())
def test_explored_dfa_is_the_one_a_frozenset_explorer_builds(tree_and_aggregates):
    tree, aggregates = tree_and_aggregates
    assert to_dot(compile_order(tree, aggregates)) == to_dot(reference_explore(tree, aggregates))


def test_exploration_closes_each_labelled_nfa_state_once(monkeypatch):
    calls = []
    closure = Nfa.closure

    def counting_closure(nfa, states):
        calls.append(states)
        return closure(nfa, states)

    monkeypatch.setattr(Nfa, "closure", counting_closure)
    expr = Seq((Star(Alt((Atom("e"), Atom("f")))), Atom("e")) + (Alt((Atom("e"), Atom("f"))),) * 10)
    automaton = compile_order(expr)
    assert automaton.state_count == 2 ** 11 + 1
    labelled = sum(1 for moves in automaton.nfa.moves if moves)
    assert len(calls) <= labelled + 1 == 24


def test_lazy_automaton_builds_only_the_initial_state():
    automaton = lazy_automaton(Seq((Star(Alt((Atom("e"), Atom("f")))), Atom("e"))))
    assert automaton.state_count == 1
    assert automaton.transitions == {}
    assert automaton.alphabet == frozenset({"e", "f"})


def test_missing_transition_is_cached():
    automaton = lazy_automaton(Atom("c"))
    assert automaton.step(0, "d") is None
    automaton.nfa = None  # a second NFA step would now fail
    assert automaton.step(0, "d") is None
    assert automaton.state_count == 1


def test_checking_a_wide_rule_builds_one_state_per_event_at_most():
    spec = parse_crysl(SourceFile.for_text(wide_rule_text(16), "crysl"))  # 131,073 DFA states
    rules = compile_rules([spec])
    rng = random.Random(16)
    words = {}
    for object_id, pivot in (("w1", "e"), ("w2", "f")):
        word = [rng.choice("ef") for _ in range(20)]
        word[-17] = pivot  # the 17th label from the end decides acceptance
        words[object_id] = word
    trace = [
        TraceEvent(seq, object_id, spec.class_name, *(("push", ("1",)) if label == "e" else ("skip", ())))
        for seq, (object_id, label) in enumerate(
            ((object_id, label) for object_id, word in words.items() for label in word), start=1
        )
    ]
    found = [(v.kind, v.object_id) for v in check_trace(rules, trace).violations]
    assert rules[spec.class_name].automaton.state_count <= len(trace) + 1
    expected = [
        ("incomplete", object_id)
        for object_id, word in words.items()
        if derivative_verdict(spec.order, word)[0] == "incomplete"
    ]
    assert found == expected == [("incomplete", "w2")]


def test_exploring_a_wide_rule_keeps_its_subsets_small():
    """8,193 subsets of up to 32 NFA states each, held as bit masks."""
    order = parse_crysl(SourceFile.for_text(wide_rule_text(12), "crysl")).order
    tracemalloc.start()
    try:
        automaton = compile_order(order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert automaton.state_count == 2 ** 13 + 1
    assert peak <= 4 * 2 ** 20


def test_exploring_a_chain_steps_each_state_only_on_labels_that_move_it(monkeypatch):
    calls = []
    step = TypestateAutomaton.step

    def counting_step(self, state, label):
        calls.append(label)
        return step(self, state, label)

    monkeypatch.setattr(TypestateAutomaton, "step", counting_step)

    def steps(n):
        calls.clear()
        assert compile_order(Seq(tuple(Atom(f"e{i}") for i in range(n)))).state_count == n + 1
        return len(calls)

    # Stepping every state over the whole alphabet grows as n squared: 4x.
    assert steps(500) <= 2.2 * steps(250)


def test_exploration_stops_past_the_state_limit():
    def wide_order(k):
        return parse_crysl(SourceFile.for_text(wide_rule_text(k), "crysl")).order

    assert compile_order(wide_order(12)).state_count == 2 ** 13 + 1 <= MAX_DFA_STATES
    with pytest.raises(StateLimitError):
        compile_order(wide_order(13))


# ---------------------------------------------------------------------------
# DOT output
# ---------------------------------------------------------------------------

_DOT_NODE = re.compile(r'^\s{4}(\w+) \[shape=(point|circle|doublecircle)(, label="[^"]*")?\];$')
_DOT_EDGE = re.compile(r'^\s{4}(\w+) -> (\w+)( \[label="[^"]+"\])?;$')


def _check_dot_grammar(text: str) -> None:
    lines = text.splitlines()
    assert lines[0] == "digraph typestate {"
    assert lines[-1] == "}"
    declared = set()
    for line in lines[1:-1]:
        if line.strip() == "rankdir=LR;":
            continue
        node = _DOT_NODE.match(line)
        if node:
            declared.add(node.group(1))
            continue
        edge = _DOT_EDGE.match(line)
        assert edge, f"line does not parse as DOT: {line!r}"
        assert edge.group(1) in declared and edge.group(2) in declared


def test_single_atom_dot_output():
    dot = to_dot(compile_order(Atom("c")))
    _check_dot_grammar(dot)
    assert dot.count("doublecircle") == 1
    assert 's0 -> s1 [label="c"];' in dot


def test_digest_dot_is_valid_and_deterministic(digest_automaton):
    first = to_dot(digest_automaton)
    second = to_dot(digest_automaton)
    _check_dot_grammar(first)
    assert first == second


def test_star_of_sequence_round_trip_semantics():
    expr = Star(Seq((Atom("a"), Atom("b"))))
    automaton = compile_order(expr)
    assert dfa_verdict(automaton, []) == ("accepted", None)
    assert dfa_verdict(automaton, ["a", "b", "a", "b"]) == ("accepted", None)
    assert dfa_verdict(automaton, ["a"]) == ("incomplete", None)
    assert dfa_verdict(automaton, ["b"]) == ("rejected", 0)
