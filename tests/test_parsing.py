from __future__ import annotations

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cryslkit import (
    ParseError,
    SourceFile,
    parse_abstract,
    parse_config,
    parse_crysl,
    parse_refinement,
    pretty_print,
    run_build,
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
)

import oracles
import reference_parsing
from cryslkit import parsing
from cryslkit.cli import main
from cryslkit.parsing import LANGUAGE_BY_EXTENSION, RULE_SUFFIXES, rule_files
from conftest import (
    ABSTRACT_FACTORY,
    ABSTRACT_MESSAGEDIGEST,
    DIGEST_FAMILY_REFINEMENTS,
    MESSAGEDIGEST_RULE,
    PROVIDER_REFINEMENTS,
    SHA256_DIGEST_RULE,
    SOURCE_PARSERS,
    parse_outcome,
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


@pytest.mark.parametrize("text, where", [("ABSTRACT foo SPEC a.B", "1:10"), ("ABSTRACT", "1:1")])
def test_missing_spec_header_after_abstract_points_at_the_next_token(text, where):
    # At the token after ABSTRACT, or at the start when nothing follows it.
    with pytest.raises(ParseError) as err:
        mcsl(text, "t.mcsl")
    assert str(err.value) == f"t.mcsl:{where}: error: missing SPEC header"


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


def test_abstract_grammar_is_a_superset_of_concrete(corpus_dir, golden_dir):
    abstract = mcsl(MESSAGEDIGEST_RULE)
    concrete = crysl(MESSAGEDIGEST_RULE)
    assert abstract.type_params == ()
    assert abstract == concrete

    # Every bundled .crysl rule: the committed goldens and each rule that a
    # bundled configuration generates, as emitted.
    texts = [p.read_text(encoding="utf-8") for p in sorted(golden_dir.glob("*.crysl"))]
    for path in sorted(corpus_dir.rglob("*.conf")):
        result = run_build(parse_config(SourceFile.from_path(path)))
        texts += [pretty_print(spec) for _, spec in result.generated]
    assert len(texts) >= 2 + 81
    for text in texts:
        assert mcsl(text) == crysl(text)


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
        "RemoveConstraint", "ReplaceOrder", "AddPredicate", "AddPredicate",
        "RemovePredicate", "RemovePredicate",
    ]
    assert ops[1].aggregate == "Gets"
    assert ops[5].order == Seq((Atom("g1"), Plus(Atom("g3"))))
    assert (ops[6].kind, ops[6].predicate.name) == ("ensures", "done")
    assert (ops[7].kind, ops[7].predicate.name) == ("requires", "ready")
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


def test_only_a_relative_path_may_hold_a_parent_directory_component():
    text = "config c {{ src = {}; out = o; load spec a.crysl; }}"
    for parse in (conf, lambda text: reference_parsing.parse_config(
            SourceFile.for_text(text, "config", "c.conf"))):
        assert parse(text.format("/tmp/../tmp")).src == "/tmp/../tmp"
        assert parse(text.format("a/..b")).src == "a/..b"
        with pytest.raises(ParseError) as err:
            parse(text.format("a/../b"))
        assert err.value.diagnostic.render() == (
            "c.conf:1:18: error: parent-directory escape in path 'a/../b'")


_NUL_FOUND = "expected ';', found '\\u0000'"


@pytest.mark.parametrize("entries, at, message", [
    (("src = a\0b;", "out = o;", "load spec a;"), "2:10", _NUL_FOUND),
    (("src = s;", "out = a\0b;", "load spec a;"), "3:10", _NUL_FOUND),
    (("src = s;", "out = o;", "load spec a\0b;"), "4:14", _NUL_FOUND),
    (("src = s;", "out = \0;", "load spec a;"), "3:9", "expected path"),
])
def test_a_nul_in_a_configuration_path_is_refused_at_it(entries, at, message):
    text = "config c {\n" + "".join(f"  {entry}\n" for entry in entries) + "}\n"
    with pytest.raises(ParseError) as err:
        conf(text)
    assert err.value.diagnostic.render() == f"c.conf:{at}: error: {message}"


def test_duplicate_config_name_is_rejected():
    with pytest.raises(ParseError) as err:
        conf(CONFIG_TEXT + CONFIG_TEXT)
    assert "duplicate config name" in str(err.value)


class _CountingPattern:
    """A compiled pattern whose ``finditer`` adds up the characters its
    matches span."""

    def __init__(self, pattern: re.Pattern):
        self.pattern, self.chars = pattern, 0

    def finditer(self, text, pos=0):
        for match in self.pattern.finditer(text, pos):
            self.chars += match.end() - match.start()
            yield match

    def __getattr__(self, name):
        return getattr(self.pattern, name)


@pytest.mark.parametrize("separator", [" ", "\n"])
def test_a_configuration_tokenises_each_character_at_most_once(monkeypatch, separator):
    # Each path swallows a '//' that a full tokenisation reads as a comment
    # running to the end of the line.
    counting = _CountingPattern(parsing._CONFIG_TOKEN_RE)
    monkeypatch.setattr(parsing, "_CONFIG_TOKEN_RE", counting)
    text = ("config c {\n    src = s//t; out = o;\n"
            + separator.join(["load spec a//b;"] * 2000) + " // done\n}\n")
    config = conf(text)
    assert (config.src, config.out) == ("s//t", "o")
    assert [load.path for load in config.loads] == ["a//b"] * 2000
    assert counting.chars <= len(text)


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
    assert spec.events[0].loc == Loc("rule.crysl", 5, 5)
    assert spec.order_loc == Loc("rule.crysl", 6, 1)
    # Four spaces, 'e', a lone carriage return and a tab precede the ')'.
    assert error_loc(crysl, text) == (7, 8)


def test_a_tab_counts_as_one_column():
    spec = crysl("SPEC X\nOBJECTS\n\tint n;\nEVENTS\n\t\te : push(n);\nORDER\n\te\n")
    assert spec.objects[0].loc == Loc("rule.crysl", 3, 2)
    assert spec.events[0].loc == Loc("rule.crysl", 5, 3)
    assert spec.order.loc == Loc("rule.crysl", 7, 2)


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


# ---------------------------------------------------------------------------
# The token walker against the character scanner it replaced
# ---------------------------------------------------------------------------

SCANNER = {"crysl": reference_parsing.parse_crysl, "abstract": reference_parsing.parse_abstract,
           "refinement": reference_parsing.parse_refinement,
           "config": reference_parsing.parse_config}
CONSTRAINED_RULE = SMALL_RULE + "    e\nCONSTRAINTS\n    n in {{{}}};\n"


@settings(max_examples=500, deadline=None)
@given(parser_inputs())
@example(("crysl", MESSAGEDIGEST_RULE.replace("Gets :=", "Gets : =")))
@example(("abstract", MESSAGEDIGEST_RULE.replace("Gets :=", "Gets:= ")))
@example(("refinement", PROVIDER_REFINEMENTS.replace("=>", "= >")))
@example(("refinement", PROVIDER_REFINEMENTS.replace(" =>", "=>")))
@example(("refinement", "SPEC A REFINES B { add event e := f(); }"))
@example(("crysl", MESSAGEDIGEST_RULE.replace("out = digest", "out => digest")))
@example(("crysl", MESSAGEDIGEST_RULE.replace("digested[out]", "digested[]")))
@example(("crysl", MESSAGEDIGEST_RULE.replace("byte[] data", "byte[ ] data")))
@example(("crysl", MESSAGEDIGEST_RULE.replace("byte[] out", "byte[][]out")))
@example(("crysl", CONSTRAINED_RULE.format("1, \u0663")))
@example(("crysl", SMALL_RULE.replace("push(n)", "push(\u00b2)") + "    e\n"))
@example(("crysl", MESSAGEDIGEST_RULE.replace("\nORDER", "\f\nORDER")))
@example(("crysl", CONSTRAINED_RULE.format('"a // b", "c // d\n"')))
@example(("abstract", CONSTRAINED_RULE.format('"abc\\" // "')))
@example(("config", CONFIG_TEXT.replace("base/;", "ba//se/;")))
@example(("config", CONFIG_TEXT.replace("base/;", "ba//se/ ;")))
@example(("config", "config c { src = a//b; out = c//d; load spec e//f; } // g"))
@example(("config", "config c {\n src = a//b; // c; d\n out = e; load spec f//;\n}"))
@example(("config", CONFIG_TEXT.replace("samples/jca/base/", 'sam"ples/jca base/"')))
@example(("config", CONFIG_TEXT.replace("samples/jca/base/", '"samples"')))
@example(("config", CONFIG_TEXT.replace("samples/jca/base/", "a\fb")))
@example(("config", CONFIG_TEXT.replace("samples/jca/base/", "a\0b")))
@example(("crysl", SMALL_RULE + "    " + "(" * 101 + "e" + ")" * 101 + "\n"))
@example(("refinement", "SPEC A REFINES B { replace order (e" + "*" * 100 + "); }"))
def test_token_walker_parses_as_the_character_scanner_did(case):
    language, text = case
    path = f"input.{language}"
    walker = parse_outcome(SOURCE_PARSERS, language, text, path)
    assert walker == parse_outcome(SCANNER, language, text, path)


# ---------------------------------------------------------------------------
# The possessive token patterns against greedy ones
# ---------------------------------------------------------------------------

# Dense in what trivia, strings and comments are made of: slashes, quotes,
# backslashes and line breaks, with open strings, comments and escaped line
# breaks as whole pieces.
_TOKENISER_PIECES = ("/", "/", '"', '"', "\\", "\\", "\r", "\n", "\n", "\t", " ", "a", "Z", "_",
                     "0", "9", "{", "}", ";", "=", "<", ">", '"ab', "//", "// c", "\\\n", '\\"')


def _config_tokens(pattern: re.Pattern, text: str, pos: int) -> list:
    return [(m.groups(), m.span(1), m.span(2)) for m in pattern.finditer(text, pos)]


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(_TOKENISER_PIECES), max_size=40).map("".join),
       st.integers(min_value=0, max_value=40))
@example('x = "open', 0)
@example('a "b" c "d', 0)
@example("a //", 0)
@example("//", 0)
@example('"a\\\nb"', 0)
@example('"a\\"b" //"\r\n\t"', 3)
def test_possessive_token_patterns_tokenise_as_the_greedy_ones(text, pos):
    assert parsing._TOKEN_RE.split(text) == oracles.GREEDY_TOKEN_RE.split(text)
    pos = min(pos, len(text))
    assert (_config_tokens(parsing._CONFIG_TOKEN_RE, text, pos)
            == _config_tokens(oracles.GREEDY_CONFIG_TOKEN_RE, text, pos))


# ---------------------------------------------------------------------------
# Reading and listing source files
# ---------------------------------------------------------------------------


def read_outcome(read, path):
    """The source ``read(path)`` gives, or the diagnostic of its parse error."""
    try:
        return read(path)
    except ParseError as exc:
        return exc.diagnostic


# Line breaks of each kind, a BOM, NUL, bytes that are not UTF-8 (a lone
# Latin-1 byte, a truncated sequence, an encoded surrogate) and valid text.
_BYTE_PIECES = (b"\r\n", b"\r", b"\n", b"\xef\xbb\xbf", b"\x00", b"\xe9", b"\xff", b"\xc3",
                b"\xf0\x9f", b"\xed\xa0\x80", "\u00e9\u2028".encode(), b"SPEC a.B\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_BYTE_PIECES), st.binary(max_size=6),
                          st.text(max_size=6).map(str.encode)), max_size=12).map(b"".join))
@example(b"a\r")
@example(b"\r\r\n\r")
@example(b"a\r\r\nb\xe9")
@example(b"\xef\xbb\xbfSPEC\r\n\x00")
@example(b"\r\xe9\n\xe9")
@example(b"x" * 8191 + b"\r\n\xe9")  # a line break across the text reader's chunks
@example(b"x" * 8191 + b"\r")
def test_a_source_reads_as_read_text_reads_it(data):
    with tempfile.TemporaryDirectory() as scratch:
        for suffix in LANGUAGE_BY_EXTENSION:
            path = Path(scratch, f"source{suffix}")
            path.write_bytes(data)
            assert (read_outcome(SourceFile.from_path, path)
                    == read_outcome(oracles.reference_read_source, path))


_BOM = b"\xef\xbb\xbf"


def test_source_text_takes_only_a_known_language_tag():
    with pytest.raises(ValueError) as raised:
        SourceFile.for_text("SPEC X", "cobol")
    assert raised.value.args == ("unknown language tag 'cobol'",)


@pytest.mark.parametrize("name, text", [
    ("rule.crysl", MESSAGEDIGEST_RULE), ("rule.mcsl", ABSTRACT_MESSAGEDIGEST),
    ("r.ref", DIGEST_FAMILY_REFINEMENTS),
    ("c.conf", "config c {\n  src = s;\n  out = o;\n  load spec a;\n}\n"),
], ids=["crysl", "mcsl", "ref", "conf"])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(_BOM + text.encode())
    assert SourceFile.from_path(path).text == text
    # Only the first mark is skipped: a second one is text.
    path.write_bytes(_BOM + _BOM + text.encode())
    assert SourceFile.from_path(path).text == "\ufeff" + text


def test_a_byte_order_mark_takes_no_column_before_a_bad_byte(tmp_path):
    path = tmp_path / "rule.mcsl"
    path.write_bytes(_BOM + b"SPEC a.B\xe9\n")
    with pytest.raises(ParseError) as err:
        SourceFile.from_path(path)
    assert err.value.diagnostic.render() == f"{path}:1:9: error: byte 0xe9 is not valid UTF-8"


def test_from_path_puts_outside_input_in_normal_form(tmp_path, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "b.mcsl").write_text("SPEC X\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert SourceFile.from_path("./a//b.mcsl").path == "a/b.mcsl"
    assert SourceFile.from_path(Path("./a//b.mcsl")).path == "a/b.mcsl"


@pytest.mark.parametrize("name, suffix", [
    ("a.", ""), (".mcsl", ""), ("X.MCSL", ".MCSL"), ("a.b.txt", ".txt"), ("README", ""),
])
def test_an_unknown_extension_is_named_as_path_suffix_names_it(tmp_path, name, suffix):
    path = tmp_path / name
    path.write_text("SPEC X\n", encoding="utf-8")
    assert path.suffix == suffix
    for read in (SourceFile.from_path, parsing.read_rule, oracles.reference_read_source):
        with pytest.raises(ValueError) as raised:
            read(str(path))
        assert raised.value.args == (str(path), f"unknown rule-file extension '{suffix}'")


def make_awkward_tree(root: Path) -> None:
    """Rule files among entries a listing must pass over without an error:
    symlinks dangling, looping and to directories, a FIFO, a directory named
    like a rule file and names whose ``Path.suffix`` is not what they end with."""
    (root / "sub" / "deeper").mkdir(parents=True)
    (root / "x.mcsl").mkdir()
    for name in ("a.mcsl", "b.crysl", "c.ref", ".mcsl", "a.", "X.MCSL", "notes.txt",
                 "x.mcsl/inner.crysl", "sub/s.mcsl", "sub/t.ref", "sub/deeper/d.mcsl"):
        (root / name).write_text("SPEC X\n", encoding="utf-8")
    for link, target in (("dangling.mcsl", "missing.mcsl"), ("loop1.mcsl", "loop2.mcsl"),
                         ("loop2.mcsl", "loop1.mcsl"), ("link.mcsl", "a.mcsl"), ("linked", "sub"),
                         ("sub/l1.crysl", "l2.crysl"), ("sub/l2.crysl", "l1.crysl"),
                         ("sub/gone", "nowhere")):
        (root / link).symlink_to(target)
    os.mkfifo(root / "pipe.mcsl")


@pytest.mark.parametrize("suffixes", [RULE_SUFFIXES, (".ref",), (".crysl",)])
def test_rule_files_lists_as_pathlib_listed(tmp_path, monkeypatch, suffixes):
    make_awkward_tree(tmp_path / "rules")
    monkeypatch.chdir(tmp_path)
    for spelling in (str(tmp_path / "rules"), "rules", "./rules//", ".", "rules/sub",
                     "rules/linked", "rules/x.mcsl", "rules/a.mcsl", "rules/link.mcsl"):
        expected = [str(p) for p in oracles.reference_rule_files(Path(spelling), suffixes)]
        assert rule_files(spelling, suffixes) == expected, spelling
    assert rule_files("rules", suffixes)


def test_rule_files_answers_none_for_what_is_neither_a_file_nor_a_directory(tmp_path,
                                                                          monkeypatch):
    make_awkward_tree(tmp_path / "rules")
    monkeypatch.chdir(tmp_path / "rules")
    for name in ("missing.mcsl", "dangling.mcsl", "loop1.mcsl", "pipe.mcsl", "sub/gone",
                 "sub/l1.crysl", "a.mcsl/below", "a\0b"):
        assert rule_files(name, RULE_SUFFIXES) is None, name


def test_validate_and_a_directory_load_read_the_same_files_in_the_same_order(tmp_path,
                                                                             monkeypatch):
    make_awkward_tree(tmp_path / "rules")
    monkeypatch.chdir(tmp_path)
    read_source = parsing.read_source
    reads: list[str] = []

    def record(path):
        reads.append(path)
        return read_source(path)

    config = conf("config c {\n  src = rules;\n  out = out;\n  load spec .;\n}\n")
    monkeypatch.setattr(parsing, "read_source", record)
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["validate", "rules"]) == 1
    validated, reads[:] = reads[:], []
    run_build(config)
    assert reads == validated == rule_files("rules", RULE_SUFFIXES)
    assert len(validated) == 6


def test_a_load_target_that_loops_dangles_or_is_a_fifo_is_a_missing_path(tmp_path):
    make_awkward_tree(tmp_path / "rules")
    result = run_build(conf("config c {\n  src = rules;\n  out = out;\n  load spec loop1.mcsl;\n"
                            "  load spec dangling.mcsl;\n  load spec pipe.mcsl;\n}\n",
                            str(tmp_path / "c.conf")))
    assert [d.render() for d in result.diagnostics] == [
        f"{tmp_path}/c.conf:{line}:3: error: missing path: '{tmp_path}/rules/{name}'"
        for line, name in ((4, "loop1.mcsl"), (5, "dangling.mcsl"), (6, "pipe.mcsl"))]


def test_an_unknown_remove_op_is_located_at_the_op():
    with pytest.raises(ParseError) as err:
        ref("SPEC M REFINES a.B {\n    remove order;\n}\n")
    assert err.value.diagnostic.render() == "r.ref:2:5: error: unknown op keyword 'remove order'"


def test_parse_refinement_refuses_a_source_of_another_language():
    with pytest.raises(ValueError) as err:
        parse_refinement(SourceFile.for_text("SPEC a.B\n", "crysl", "a.crysl"))
    assert err.value.args == ("a.crysl", "expected a .ref source, got crysl")


def test_a_second_configuration_in_a_file_is_located_at_its_keyword():
    with pytest.raises(ParseError) as err:
        conf("config a {\n  src = s;\n  out = o;\n}\nconfig b {\n}\n", "c.conf")
    assert err.value.diagnostic.render() == (
        "c.conf:5:1: error: multiple configurations per file are not supported"
    )


def test_an_abstract_return_binding_may_name_a_declared_type_parameter_method():
    rule = ("ABSTRACT SPEC a.B<T>\nOBJECTS\n    <T> r;\nEVENTS\n    e : r = <{}>();\n"
            "ORDER\n    e\n")
    [event] = mcsl(rule.format("T")).events
    assert (event.return_binding, event.method_name) == ("r", "<T>")
    with pytest.raises(ParseError) as err:
        mcsl(rule.format("U"))
    assert err.value.diagnostic.render() == "rule.mcsl:5:13: error: type parameter 'U' is not declared"
