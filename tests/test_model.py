from __future__ import annotations

from cryslkit import SourceFile, parse_crysl, validate_rule_set, validate_spec
from cryslkit.diagnostics import Severity
from cryslkit.model import (
    AggregateDecl,
    Atom,
    CrySLSpec,
    EventDecl,
    Loc,
    ObjectDecl,
    PredicateRef,
    Seq,
    has_variation_points,
    simple_name,
    to_concrete,
)

from conftest import ABSTRACT_FACTORY, MESSAGEDIGEST_RULE


def _spec(text: str, path: str = "rule.crysl") -> CrySLSpec:
    return parse_crysl(SourceFile.for_text(text, "crysl", path))


def _tiny(order, events=None, aggregates=(), objects=(), ensures=(), requires=()):
    events = events or (EventDecl("a", None, "alpha", ()),)
    return CrySLSpec(
        class_name="com.example.Api",
        objects=tuple(objects),
        events=tuple(events),
        aggregates=tuple(aggregates),
        order=order,
        ensures=tuple(ensures),
        requires=tuple(requires),
    )


def test_messagedigest_rule_is_valid():
    spec = _spec(MESSAGEDIGEST_RULE)
    assert validate_spec(spec) == []


def test_order_with_unresolved_label_is_reported():
    spec = _tiny(Seq((Atom("a"), Atom("x9"))))
    diags = validate_spec(spec)
    assert len(diags) == 1
    assert "unresolved label 'x9'" in diags[0].message


def test_duplicate_event_label_is_reported():
    events = (
        EventDecl("g1", None, "getInstance", ()),
        EventDecl("g1", None, "getInstance", ()),
    )
    diags = validate_spec(_tiny(Atom("g1"), events=events))
    assert len(diags) == 1
    assert "duplicate label 'g1'" in diags[0].message


def test_aggregate_colliding_with_event_label_is_reported():
    events = (EventDecl("a", None, "alpha", ()), EventDecl("b", None, "beta", ()))
    aggregates = (AggregateDecl("a", ("b",)),)
    diags = validate_spec(_tiny(Atom("a"), events=events, aggregates=aggregates))
    assert any("duplicate label 'a'" in d.message for d in diags)


def test_predicate_argument_must_be_declared():
    diags = validate_spec(_tiny(Atom("a"), ensures=(PredicateRef("done", ("ghost",)),)))
    assert any("'ghost'" in d.message for d in diags)


def test_return_binding_must_name_declared_object():
    events = (EventDecl("a", "result", "alpha", ()),)
    diags = validate_spec(_tiny(Atom("a"), events=events))
    assert any("return binding 'result'" in d.message for d in diags)


def test_diagnostics_are_ordered_by_location_and_deterministic():
    text = """\
SPEC com.example.Api
OBJECTS
    int x;
EVENTS
    a : alpha(ghost);
    b : beta();
ORDER
    a, nope
ENSURES
    done[other];
"""
    spec = _spec(text)
    first = validate_spec(spec)
    second = validate_spec(spec)
    assert first == second
    positions = [(d.line, d.column) for d in first]
    assert positions == sorted(positions)
    assert len(first) == 3


def test_diagnostic_locations_lie_within_input():
    text = MESSAGEDIGEST_RULE.replace("u1+", "u1+, zz")
    spec = _spec(text)
    lines = text.splitlines()
    for diag in validate_spec(spec):
        assert 1 <= diag.line <= len(lines)
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1


def test_equality_ignores_source_locations():
    one = _spec(MESSAGEDIGEST_RULE, path="a.crysl")
    padded = "// leading comment\n\n" + MESSAGEDIGEST_RULE
    other = _spec(padded, path="b.crysl")
    assert one == other
    assert one.loc != other.loc


def test_rule_set_with_matched_requires_is_clean():
    from cryslkit import parse_abstract

    factory = parse_abstract(SourceFile.for_text(ABSTRACT_FACTORY, "abstract", "f.mcsl"))
    producer = _tiny(
        Atom("a"),
        events=(EventDecl("a", "ksh", "generate", ()),),
        objects=(ObjectDecl("com.google.crypto.tink.KeysetHandle", "ksh"),),
        ensures=(PredicateRef("generatedKeySet", ("ksh",)),),
    )
    assert validate_rule_set([to_concrete_like(factory), producer]) == []


def to_concrete_like(spec):
    # AbstractFactory still has a type parameter; rule-set checks only look
    # at class names and predicates, so strip the variation point crudely.
    return spec.replace(type_params=(), objects=tuple(
        o for o in spec.objects if "<" not in o.type_name
    ))


def test_unmatched_requires_is_a_single_warning():
    spec = _tiny(
        Atom("a"),
        events=(EventDecl("a", None, "alpha", ()),),
        requires=(PredicateRef("generatedKeySet", ("k",)),),
        objects=(ObjectDecl("java.security.Key", "k"),),
    )
    diags = validate_rule_set([spec])
    assert len(diags) == 1
    assert diags[0].severity is Severity.WARNING
    assert "generatedKeySet" in diags[0].message


def test_duplicate_class_name_is_an_error():
    a = _tiny(Atom("a"))
    b = _tiny(Atom("a"))
    diags = validate_rule_set([a, b])
    assert len(diags) == 1
    assert diags[0].severity is Severity.ERROR


def test_requires_matching_uses_name_and_arity():
    producer = _tiny(
        Atom("a"),
        events=(EventDecl("a", None, "alpha", ()),),
        objects=(ObjectDecl("int", "x"), ObjectDecl("int", "y")),
        ensures=(PredicateRef("fact", ("x", "y")),),
    )
    consumer = CrySLSpec(
        class_name="com.example.Other",
        objects=(ObjectDecl("int", "z"),),
        events=(EventDecl("b", None, "beta", ()),),
        aggregates=(),
        order=Atom("b"),
        requires=(PredicateRef("fact", ("z",)),),
    )
    diags = validate_rule_set([producer, consumer])
    assert len(diags) == 1  # arity 1 is not satisfied by the arity-2 producer


def test_simple_name_and_registry_name():
    assert simple_name("java.security.MessageDigest") == "MessageDigest"
    assert simple_name("Digest") == "Digest"
    assert _spec(MESSAGEDIGEST_RULE).name == "MessageDigest"


def test_to_concrete_rejects_variation_points():
    from cryslkit import parse_abstract

    spec = parse_abstract(SourceFile.for_text(ABSTRACT_FACTORY, "abstract", "f.mcsl"))
    assert has_variation_points(spec)
    try:
        to_concrete(spec)
    except ValueError as exc:
        assert "<T>" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def test_loc_dataclass_is_one_based():
    spec = _spec(MESSAGEDIGEST_RULE)
    assert spec.loc == Loc(1, 1) or (spec.loc.line >= 1 and spec.loc.col >= 1)


def test_validation_catches_undeclared_placeholder_in_hand_built_ast():
    from cryslkit.model import AbstractSpec

    spec = AbstractSpec(
        class_name="Factory",
        objects=(ObjectDecl("<T>", "primitive"),),
        events=(EventDecl("g", None, "make", ()),),
        aggregates=(),
        order=Atom("g"),
        type_params=(),
    )
    diags = validate_spec(spec)
    assert any("type parameter 'T'" in d.message for d in diags)
