from __future__ import annotations

import re

import pytest
from hypothesis import example, given, settings, strategies as st

from cryslkit import (
    ParseError,
    SourceFile,
    parse_abstract,
    parse_config,
    parse_crysl,
    parse_refinement,
)
from cryslkit.diagnostics import Loc
from cryslkit.model import (
    AddConstraint,
    Alt,
    Atom,
    DefineLiteralSet,
    Implication,
    LiteralSet,
    MetaVarRef,
    Plus,
    Seq,
    to_concrete,
)

from conftest import (
    ABSTRACT_FACTORY,
    ABSTRACT_MESSAGEDIGEST,
    DIGEST_FAMILY_REFINEMENTS,
    MESSAGEDIGEST_RULE,
    PROVIDER_REFINEMENTS,
    SHA256_DIGEST_RULE,
)


def crysl(text, path="rule.crysl"):
    return parse_crysl(SourceFile.for_text(text, "crysl", path))


def mcsl(text, path="rule.mcsl"):
    return parse_abstract(SourceFile.for_text(text, "abstract", path))


def ref(text, path="r.ref"):
    return parse_refinement(SourceFile.for_text(text, "refinement", path))


def conf(text, path="c.conf"):
    return parse_config(SourceFile.for_text(text, "config", path))


# ---------------------------------------------------------------------------
# Concrete rules
# ---------------------------------------------------------------------------


def test_messagedigest_rule_shape():
    spec = crysl(MESSAGEDIGEST_RULE)
    assert spec.class_name == "java.security.MessageDigest"
    assert len(spec.objects) == 4
    assert len(spec.events) == 4
    assert len(spec.aggregates) == 1
    assert spec.order == Seq((Atom("Gets"), Plus(Atom("u1")), Atom("d1")))
    assert len(spec.constraints) == 1
    constraint = spec.constraints[0]
    assert constraint.var == "algorithm"
    assert constraint.values == LiteralSet(
        frozenset({"SHA-256", "SHA-384", "SHA-512", "BLAKE2B-512"})
    )
    assert spec.ensures[0].name == "digested"
    assert spec.ensures[0].args == ("out",)


def test_empty_file_reports_missing_spec_header():
    with pytest.raises(ParseError) as err:
        crysl("")
    assert "missing SPEC header" in str(err.value)


def test_lightweight_digest_rule_shape():
    spec = crysl(SHA256_DIGEST_RULE)
    assert spec.class_name == "SHA256Digest"
    constructor = spec.events[0]
    assert constructor.label == "c"
    assert constructor.method_name == "SHA256Digest"
    assert constructor.params == ()
    assert spec.order == Seq((Atom("c"), Plus(Atom("u")), Atom("f")))


def test_event_with_return_binding_and_wildcard():
    spec = crysl(MESSAGEDIGEST_RULE)
    g2 = spec.events[1]
    assert g2.label == "g2"
    assert g2.params[1].__class__.__name__ == "Wildcard"
    d1 = spec.events[3]
    assert d1.return_binding == "out"
    assert d1.method_name == "digest"


def test_comments_are_ignored_everywhere():
    text = "// top\n" + MESSAGEDIGEST_RULE.replace(
        "ORDER", "// before order\nORDER"
    )
    assert crysl(text) == crysl(MESSAGEDIGEST_RULE)


def test_sections_must_appear_in_order():
    text = """\
SPEC com.example.Api
EVENTS
    a : alpha();
OBJECTS
ORDER
    a
"""
    with pytest.raises(ParseError) as err:
        crysl(text)
    assert "OBJECTS" in str(err.value)


def test_second_rule_in_one_file_is_an_error():
    with pytest.raises(ParseError) as err:
        crysl(MESSAGEDIGEST_RULE + "\nSPEC com.example.Another")
    assert "unexpected text" in str(err.value)


def test_meta_variable_rejected_in_concrete_rule():
    with pytest.raises(ParseError) as err:
        crysl(MESSAGEDIGEST_RULE.replace('{"SHA-256", "SHA-384", "SHA-512", "BLAKE2B-512"}', "$AlgSet"))
    assert "abstract" in str(err.value)


def test_parse_error_location_is_inside_input():
    bad = MESSAGEDIGEST_RULE.replace("Gets, u1+, d1", "Gets, u1+, (d1")
    with pytest.raises(ParseError) as err:
        crysl(bad)
    diag = err.value.diagnostic
    lines = bad.splitlines()
    assert 1 <= diag.line <= len(lines)
    assert diag.column >= 1


def test_order_depth_counts_parentheses_and_postfix_operators_together():
    # 60 parentheses and 30 operators inside them stay within the 100 levels;
    # the operators after the closing parentheses add to the same path.
    order = f"{'(' * 60}e{'*' * 30}{')' * 60}"
    text = "SPEC X\nOBJECTS\n    int n;\nEVENTS\n    e : push(n);\nORDER\n    {}\n"
    crysl(text.format(order + "*" * 10))
    with pytest.raises(ParseError) as err:
        crysl(text.format(order + "*" * 11))
    diag = err.value.diagnostic
    assert (diag.line, diag.column) == (7, 5 + len(order) + 10)
    assert "deeper than 100 levels" in diag.message


def test_parsing_is_deterministic():
    assert crysl(MESSAGEDIGEST_RULE) == crysl(MESSAGEDIGEST_RULE)


# ---------------------------------------------------------------------------
# Abstract rules
# ---------------------------------------------------------------------------


def test_meta_variable_in_constraint_position():
    spec = mcsl(ABSTRACT_MESSAGEDIGEST)
    assert spec.constraints[0].values == MetaVarRef("AlgSet")
    assert spec.type_params == ()


def test_type_parameter_template():
    spec = mcsl(ABSTRACT_FACTORY)
    assert spec.class_name == "AbstractFactory"
    assert spec.type_params == ("T",)
    assert spec.objects[1].type_name == "<T>"
    assert spec.ensures[0] .name == "setPrimitive"
    assert spec.requires[0].name == "generatedKeySet"


def test_abstract_grammar_is_a_superset_of_concrete():
    abstract = mcsl(MESSAGEDIGEST_RULE)
    concrete = crysl(MESSAGEDIGEST_RULE)
    assert abstract.type_params == ()
    assert to_concrete(abstract) == concrete


def test_placeholder_method_name_in_template():
    text = """\
ABSTRACT SPEC Digest<T>
OBJECTS
    byte input;
EVENTS
    c : <T>();
    u : update(input);
ORDER
    c, u+
"""
    spec = mcsl(text)
    assert spec.events[0].method_name == "<T>"


def test_undeclared_type_parameter_is_a_parse_error():
    text = """\
SPEC Factory
OBJECTS
    <T> primitive;
EVENTS
    g : make();
ORDER
    g
"""
    with pytest.raises(ParseError) as err:
        mcsl(text)
    assert "type parameter 'T' is not declared" in str(err.value)
    assert err.value.diagnostic.line == 3


# ---------------------------------------------------------------------------
# Refinements
# ---------------------------------------------------------------------------


def test_provider_refinement_file():
    refinements = ref(PROVIDER_REFINEMENTS)
    assert [r.name for r in refinements] == ["MessageDigest", "KeyGenerator"]
    md, kg = refinements
    assert md.base_name == "java.security.MessageDigest"
    assert md.ops == (
        DefineLiteralSet(
            "AlgSet",
            LiteralSet(frozenset({
                "Blake2s", "Blake2b", "GOST-3411", "SHA-256", "SHA-384",
                "SHA-512", "Whirlpool",
            })),
        ),
    )
    assert isinstance(kg.ops[0], DefineLiteralSet)
    assert len(kg.ops[0].values.values) == 7
    add = kg.ops[1]
    assert isinstance(add, AddConstraint)
    assert isinstance(add.constraint, Implication)
    assert add.constraint.rhs.values == LiteralSet(frozenset({128, 192, 256}))


def test_digest_family_refinements():
    refinements = ref(DIGEST_FAMILY_REFINEMENTS)
    assert [r.name for r in refinements] == ["SHA256", "SHA384", "SHA512", "SHA512t"]
    assert all(r.ops == () for r in refinements)
    assert all(r.base_name == "Digest" for r in refinements)
    assert refinements[3].type_args == ("org.bouncycastle.crypto.digests.SHA512tDigest",)


def test_unknown_op_keyword_reports_location():
    text = "SPEC X REFINES Y { bogus op; }"
    with pytest.raises(ParseError) as err:
        ref(text)
    assert "unknown op keyword 'bogus'" in str(err.value)
    assert err.value.diagnostic.column == 20


def test_full_op_surface_parses():
    text = """\
SPEC Extended REFINES com.example.Api {
    define Sizes = {128, 256};
    add event g3 : getInstance(alg, prov) to Gets;
    remove event g2;
    add constraint alg in {"AES"};
    remove constraint alg in {"DES"};
    replace order g1, g3+;
    add ensures done[out];
    add requires ready[key];
    remove ensures old;
    remove requires stale;
}
"""
    ops = ref(text)[0].ops
    kinds = [type(op).__name__ for op in ops]
    assert kinds == [
        "DefineLiteralSet", "AddEvent", "RemoveEvent", "AddConstraint",
        "RemoveConstraint", "ReplaceOrder", "AddEnsures", "AddRequires",
        "RemovePredicate", "RemovePredicate",
    ]
    assert ops[1].aggregate == "Gets"
    assert ops[5].order == Seq((Atom("g1"), Plus(Atom("g3"))))
    assert (ops[8].kind, ops[8].name) == ("ensures", "old")
    assert (ops[9].kind, ops[9].name) == ("requires", "stale")


def test_define_accepts_optional_sigil():
    plain = ref("SPEC A REFINES B { define AlgSet = {1}; }")[0]
    sigil = ref("SPEC A REFINES B { define $AlgSet = {1}; }")[0]
    assert plain.ops == sigil.ops


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------

CONFIG_TEXT = """\
config android25plus {
    src = samples/jca/base/;
    out = samples/jca/android/target/research/25plus/;
    load spec base/;
    load refinement android-bsi/01plus/;
    load refinement android-bsi/10plus/;
    load refinement android-bsi/1025/;
}
"""


def test_config_shape_and_load_order():
    config = conf(CONFIG_TEXT)
    assert config.name == "android25plus"
    assert config.src == "samples/jca/base/"
    assert [(l.kind, l.path) for l in config.loads] == [
        ("spec", "base/"),
        ("refinement", "android-bsi/01plus/"),
        ("refinement", "android-bsi/10plus/"),
        ("refinement", "android-bsi/1025/"),
    ]


def test_config_without_spec_load_is_rejected():
    text = """\
config x {
    src = a/;
    out = b/;
    load refinement r/;
}
"""
    with pytest.raises(ParseError) as err:
        conf(text)
    assert "no specification sources" in str(err.value)


def test_config_missing_out_is_rejected():
    text = """\
config x {
    src = a/;
    load spec base/;
}
"""
    with pytest.raises(ParseError) as err:
        conf(text)
    assert "'out'" in str(err.value)


def test_config_rejects_parent_directory_escape():
    text = CONFIG_TEXT.replace("samples/jca/base/", "../../escape/")
    with pytest.raises(ParseError) as err:
        conf(text)
    assert "parent-directory escape" in str(err.value)


def test_duplicate_config_name_is_rejected():
    with pytest.raises(ParseError) as err:
        conf(CONFIG_TEXT + CONFIG_TEXT)
    assert "duplicate config name" in str(err.value)


# ---------------------------------------------------------------------------
# Locations
# ---------------------------------------------------------------------------

SMALL_RULE = "SPEC X\nOBJECTS\n    int n;\nEVENTS\n    e : push(n);\nORDER\n"


def error_loc(parse, text):
    with pytest.raises(ParseError) as err:
        parse(text)
    return err.value.diagnostic.line, err.value.diagnostic.column


def test_crlf_line_endings_count_the_carriage_return_as_a_column():
    text = (SMALL_RULE + "    e\r\t)\n").replace("\n", "\r\n")
    spec = crysl((SMALL_RULE + "    e\n").replace("\n", "\r\n"))
    assert spec.events[0].loc == Loc(5, 5)
    assert spec.order_loc == Loc(6, 1)
    # Four spaces, 'e', a lone carriage return and a tab precede the ')'.
    assert error_loc(crysl, text) == (7, 8)


def test_a_tab_counts_as_one_column():
    spec = crysl("SPEC X\nOBJECTS\n\tint n;\nEVENTS\n\t\te : push(n);\nORDER\n\te\n")
    assert spec.objects[0].loc == Loc(3, 2)
    assert spec.events[0].loc == Loc(5, 3)
    assert spec.order.loc == Loc(7, 2)


def test_comment_on_the_last_line_without_a_newline():
    assert crysl(SMALL_RULE + "    e // done") == crysl(SMALL_RULE + "    e\n")
    # The missing atom is reported at the end of the file, inside the comment's line.
    assert error_loc(crysl, SMALL_RULE + "    e, // more") == (7, 15)


def test_error_at_end_of_file_after_a_trailing_newline():
    assert error_loc(crysl, SMALL_RULE + "    e,\n") == (8, 1)
    assert error_loc(conf, "config c {\n    src = a;\n") == (3, 1)


def test_the_101st_parenthesis_of_an_over_deep_order_is_located():
    order = "(" * 60 + "\n\t" + "(" * 60 + "e" + ")" * 120
    with pytest.raises(ParseError) as err:
        crysl(SMALL_RULE + order + "\n")
    diag = err.value.diagnostic
    # 40 more parentheses after the tab on line 8.
    assert (diag.line, diag.column) == (8, 42)
    assert "parentheses deeper than 100 levels" in diag.message


# ---------------------------------------------------------------------------
# String and integer literals
# ---------------------------------------------------------------------------


def literal_values(literals):
    spec = crysl(SMALL_RULE + "    e\nCONSTRAINTS\n    n in {" + literals + "};\n")
    return spec.constraints[0].values.values


def test_escaped_quote_before_a_newline_is_an_unterminated_string():
    with pytest.raises(ParseError) as err:
        literal_values('"abc\\"\n"x"')
    diag = err.value.diagnostic
    assert (diag.line, diag.column, diag.message) == (9, 11, "unterminated string literal")


def test_escaped_backslash_ends_before_the_closing_quote():
    assert literal_values('"a\\\\"') == {"a\\"}


def test_backslash_before_another_character_is_kept():
    assert literal_values('"a\\q"') == {"a\\q"}


def test_integer_literal_up_to_the_digit_limit_parses():
    assert literal_values("1" * 4300) == {int("1" * 4300)}


@pytest.mark.parametrize("parse, text, loc", [
    (crysl, SMALL_RULE + "    e\nCONSTRAINTS\n    n in {1, " + "7" * 5000 + "};\n", (9, 14)),
    (mcsl, SMALL_RULE + "    e\nCONSTRAINTS\n    n in {" + "7" * 5000 + "};\n", (9, 11)),
    (ref, "SPEC A REFINES X {\n    define S = {" + "7" * 5000 + "};\n}\n", (2, 17)),
    (ref, "SPEC A REFINES X {\n    add event e : f(" + "0" * 4301 + ");\n}\n", (2, 21)),
], ids=["crysl", "mcsl", "ref-define", "ref-event"])
def test_overlong_integer_literal_is_a_located_parse_error(parse, text, loc):
    with pytest.raises(ParseError) as err:
        parse(text)
    diag = err.value.diagnostic
    assert (diag.line, diag.column) == loc
    assert "integer literal of" in diag.message and "digits is too long" in diag.message


# ---------------------------------------------------------------------------
# Fuzzing: every input is a result or a located ParseError
# ---------------------------------------------------------------------------

PARSERS = {"crysl": crysl, "abstract": mcsl, "refinement": ref, "config": conf}
SAMPLES = {
    "crysl": [MESSAGEDIGEST_RULE, SHA256_DIGEST_RULE],
    "abstract": [ABSTRACT_MESSAGEDIGEST, ABSTRACT_FACTORY],
    "refinement": [PROVIDER_REFINEMENTS, DIGEST_FAMILY_REFINEMENTS],
    "config": [CONFIG_TEXT],
}
TOKENS = [
    "SPEC", "ABSTRACT", "OBJECTS", "EVENTS", "ORDER", "CONSTRAINTS", "REQUIRES", "ENSURES",
    "REFINES", "in", "define", "add", "remove", "replace", "event", "constraint", "ensures",
    "requires", "order", "to", "config", "src", "out", "load", "spec", "refinement",
    "x", "n", "T", "_", "a.b", "é",
    "(", ")", "{", "}", "<", ">", "[", "]", "[]", ",", ";", ":", ":=", "=", "=>", "|", "?",
    "*", "+", "$", ".", "/", "..", "../", "\\",
    '"s"', '"a\\"b"', '"\\\\"', '"', "0", "42", "9" * 4301,
    "// note", "//", " ", "\n", "\r\n", "\t", "\r",
]
token_text = st.lists(st.sampled_from(TOKENS), max_size=60).map("".join)


@st.composite
def parser_inputs(draw):
    language = draw(st.sampled_from(sorted(PARSERS)))
    kind = draw(st.sampled_from(["text", "tokens", "spliced"]))
    if kind == "text":
        text = draw(st.text(max_size=200))
    elif kind == "tokens":
        text = draw(token_text)
    else:  # a bundled sample with grammar tokens spliced in at token boundaries
        sample = draw(st.sampled_from(SAMPLES[language]))
        bounds = [0] + [m.end() for m in re.finditer(r"\w+|\S", sample)]
        start = draw(st.sampled_from(bounds))
        end = draw(st.sampled_from([b for b in bounds if start <= b <= start + 40]))
        text = sample[:start] + draw(token_text) + sample[end:]
    return language, text


@settings(max_examples=500, deadline=None)
@given(parser_inputs())
@example(("crysl", SMALL_RULE + "    e\nCONSTRAINTS\n    n in {" + "9" * 4301 + "};"))
@example(("refinement", "SPEC A REFINES X { define S = {" + "9" * 4301 + "}; }"))
def test_any_input_parses_or_raises_a_parse_error_inside_the_input(case):
    language, text = case
    try:
        PARSERS[language](text)
    except ParseError as exc:
        diag = exc.diagnostic
        lines = text.split("\n")
        assert 1 <= diag.line <= len(lines)
        assert 1 <= diag.column <= len(lines[diag.line - 1]) + 1
