from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from cryslkit import (
    SourceFile,
    accepts,
    build_nfa,
    check_trace,
    compile_order,
    compile_rules,
    lazy_automaton,
    parse_crysl,
    to_dot,
)
from cryslkit.automaton import MAX_DFA_STATES, StateLimitError, VerdictKind, inline_aggregates
from cryslkit.model import Alt, Atom, Opt, Plus, Seq, Star
from cryslkit.tracecheck import TraceEvent

from conftest import MESSAGEDIGEST_RULE, wide_rule_text
from oracles import (
    all_words,
    derivative_verdict,
    enumerate_language,
    random_label_alphabet,
    random_order_expr,
)


@pytest.fixture(scope="module")
def digest_rule():
    return parse_crysl(SourceFile.for_text(MESSAGEDIGEST_RULE, "crysl"))


@pytest.fixture(scope="module")
def digest_automaton(digest_rule):
    return compile_order(digest_rule.order, digest_rule.aggregates)


def test_aggregates_expand_to_alternations(digest_rule):
    expr = inline_aggregates(digest_rule.order, digest_rule.aggregates)
    assert expr == Seq((Alt((Atom("g1"), Atom("g2"))), Plus(Atom("u1")), Atom("d1")))


def test_digest_protocol_words(digest_automaton):
    assert accepts(digest_automaton, ["g1", "u1", "d1"]).kind is VerdictKind.ACCEPTED
    assert accepts(digest_automaton, ["g2", "u1", "u1", "d1"]).kind is VerdictKind.ACCEPTED
    verdict = accepts(digest_automaton, ["g1", "d1"])
    assert verdict.kind is VerdictKind.REJECTED
    assert verdict.reject_index == 1
    assert accepts(digest_automaton, ["g1", "u1"]).kind is VerdictKind.INCOMPLETE


def test_label_outside_alphabet_is_rejected_at_index(digest_automaton):
    verdict = accepts(digest_automaton, ["g1", "reset", "d1"])
    assert verdict.kind is VerdictKind.REJECTED
    assert verdict.reject_index == 1


def test_single_atom_automaton():
    automaton = compile_order(Atom("c"))
    assert automaton.state_count == 2
    assert accepts(automaton, ["c"]).kind is VerdictKind.ACCEPTED
    assert accepts(automaton, []).kind is VerdictKind.INCOMPLETE
    assert accepts(automaton, ["c", "c"]).kind is VerdictKind.REJECTED


def test_optional_operator_semantics():
    automaton = compile_order(Opt(Atom("e")))
    assert accepts(automaton, []).kind is VerdictKind.ACCEPTED
    assert accepts(automaton, ["e"]).kind is VerdictKind.ACCEPTED
    assert accepts(automaton, ["e", "e"]).kind is VerdictKind.REJECTED


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
            got = accepts(automaton, list(word)).kind is VerdictKind.ACCEPTED
            assert got == expected, (expr, word)


def test_nfa_and_dfa_agree_on_exhaustive_word_sets():
    rng = random.Random(2)
    for _ in range(40):
        alphabet = random_label_alphabet(rng)
        expr = random_order_expr(rng, alphabet, rng.randint(0, 4))
        nfa = build_nfa(expr)
        dfa = compile_order(expr)
        for word in all_words(alphabet, 5):
            assert nfa.accepts(word) == (accepts(dfa, list(word)).kind is VerdictKind.ACCEPTED)


def test_three_way_verdict_matches_derivative_oracle():
    rng = random.Random(3)
    for _ in range(60):
        alphabet = random_label_alphabet(rng)
        expr = random_order_expr(rng, alphabet, rng.randint(0, 4))
        automaton = compile_order(expr)
        for word in all_words(alphabet, 5):
            kind, index = derivative_verdict(expr, word)
            verdict = accepts(automaton, list(word))
            assert verdict.kind.value == kind, (expr, word)
            if kind == "rejected":
                assert verdict.reject_index == index, (expr, word)


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
        kind, index = derivative_verdict(expr, word)
        for verdict in (accepts(lazy, word), accepts(explored, word)):
            assert verdict.kind.value == kind, (expr, word)
            assert verdict.reject_index == index, (expr, word)
    # State numbers follow the order of discovery; the subsets themselves agree.
    assert set(lazy.subsets) <= set(explored.subsets)


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
    assert accepts(automaton, []).kind is VerdictKind.ACCEPTED
    assert accepts(automaton, ["a", "b", "a", "b"]).kind is VerdictKind.ACCEPTED
    assert accepts(automaton, ["a"]).kind is VerdictKind.INCOMPLETE
    assert accepts(automaton, ["b"]).kind is VerdictKind.REJECTED
