from __future__ import annotations

from cryslkit import (
    SourceFile,
    apply_refinement,
    parse_crysl,
    parse_refinement,
    validate_rule_set,
    validate_spec,
)
from cryslkit.diagnostics import Severity
from cryslkit.model import (
    AggregateDecl,
    Atom,
    CrySLSpec,
    EventDecl,
    LiteralSet,
    Loc,
    ObjectDecl,
    PredicateRef,
    Seq,
    simple_name,
    variation_points,
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


def test_diagnostics_of_a_refined_rule_are_ordered_by_file_then_position():
    base = _spec("""\
SPEC com.example.Api
OBJECTS
    int x;
EVENTS
    a : alpha(x);
ORDER
    a, nope
ENSURES
    done[other];
""", path="api.crysl")
    [refinement] = parse_refinement(SourceFile.for_text("""\
// Lines 6 and 8 fall between the errors of the base file,
// on lines 7 and 9.

SPEC Refined REFINES com.example.Api {
    // two problems of its own
    add constraint ghost in {1};

    add requires needs[gone];
}
""", "refinement", "layer/api.ref"))
    diags = validate_spec(apply_refinement(base, refinement))
    assert [d.render() for d in diags] == [
        "api.crysl:7:8: error: unresolved label 'nope'",
        "api.crysl:9:5: error: predicate argument 'other' is not a declared object",
        "layer/api.ref:6:20: error: constraint references undeclared variable 'ghost'",
        "layer/api.ref:8:18: error: predicate argument 'gone' is not a declared object",
    ]


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
    assert validate_rule_set([without_type_parameter(factory), producer]) == []


def without_type_parameter(spec):
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


def test_a_template_is_abstract_until_its_type_parameter_is_bound():
    from cryslkit import parse_abstract

    spec = parse_abstract(SourceFile.for_text(ABSTRACT_FACTORY, "abstract", "f.mcsl"))
    assert type(spec) is CrySLSpec and spec.type_params == ("T",)
    assert variation_points(spec) == ["<T>"]
    assert variation_points(spec.replace(type_params=())) == ["<T>"]  # the placeholder
    bound = spec.replace(
        type_params=(),
        objects=tuple(o.replace(type_name="com.example.Aead") if o.type_name == "<T>" else o
                      for o in spec.objects),
    )
    assert variation_points(bound) == []


def test_loc_dataclass_is_one_based():
    spec = _spec(MESSAGEDIGEST_RULE)
    assert spec.loc == Loc("rule.crysl", 1, 1)


def test_validation_catches_undeclared_placeholder_in_hand_built_ast():
    spec = CrySLSpec(
        class_name="Factory",
        objects=(ObjectDecl("<T>", "primitive"),),
        events=(EventDecl("g", None, "make", ()),),
        aggregates=(),
        order=Atom("g"),
        type_params=(),
    )
    diags = validate_spec(spec)
    assert any("type parameter 'T'" in d.message for d in diags)


# ---------------------------------------------------------------------------
# Validation diagnostics, each as one rendered line
# ---------------------------------------------------------------------------

_ONE_EVENT_RULE = """\
SPEC a.B
OBJECTS
    int x;
EVENTS
    e : f(x);
ORDER
    e
CONSTRAINTS
    x in {1} => x in {2};
"""


def test_a_repeated_object_declaration_is_located_at_the_second():
    spec = _spec(_ONE_EVENT_RULE.replace("    int x;\n", "    int x;\n    int x;\n"))
    assert [d.render() for d in validate_spec(spec)] == [
        "rule.crysl:4:5: error: duplicate object declaration 'x'",
    ]


def test_an_aggregate_of_an_undeclared_event_is_located_at_the_aggregate():
    spec = _spec(_ONE_EVENT_RULE.replace("    e : f(x);\n", "    e : f(x);\n    A := e | g;\n")
                 .replace("ORDER\n    e\n", "ORDER\n    A\n"))
    assert [d.render() for d in validate_spec(spec)] == [
        "rule.crysl:6:5: error: aggregate 'A' references undeclared event 'g'",
    ]


def test_an_implication_with_an_implication_side_is_located_at_the_constraint():
    # The parser cannot nest implications; a rule built in code can.
    spec = _spec(_ONE_EVENT_RULE)
    [implication] = spec.constraints
    nested = implication.replace(rhs=implication)
    assert [d.render() for d in validate_spec(spec.replace(constraints=(nested,)))] == [
        "rule.crysl:9:5: error: implication sides must be plain memberships",
    ]


def test_an_empty_literal_set_is_located_at_its_membership():
    # The parser rejects ``{}``; a rule built in code can hold it.
    spec = _spec(_ONE_EVENT_RULE)
    empty = spec.constraints[0].lhs.replace(values=LiteralSet(frozenset()))
    assert [d.render() for d in validate_spec(spec.replace(constraints=(empty,)))] == [
        "rule.crysl:9:5: error: literal set must not be empty",
    ]
