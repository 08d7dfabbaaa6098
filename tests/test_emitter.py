from __future__ import annotations

import json
import os
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cryslkit import SourceFile, emit, emitter, parse_abstract, parse_crysl, pretty_print
from cryslkit.emitter import MANIFEST
from cryslkit.model import (
    Atom,
    CrySLSpec,
    EventDecl,
    LiteralSet,
    Membership,
    MetaVarRef,
    ObjectDecl,
)
from cryslkit.preprocessor import BuildResult, BuildStats

from conftest import ABSTRACT_FACTORY, MESSAGEDIGEST_RULE, SHA256_DIGEST_RULE, cyclic_garbage
from oracles import random_spec


def crysl(text):
    return parse_crysl(SourceFile.for_text(text, "crysl"))


def reparse(text):
    return parse_crysl(SourceFile.for_text(text, "crysl", "emitted.crysl"))


def test_round_trip_preserves_ast():
    spec = crysl(MESSAGEDIGEST_RULE)
    assert reparse(pretty_print(spec)) == spec


def test_pretty_print_is_idempotent():
    spec = crysl(MESSAGEDIGEST_RULE)
    once = pretty_print(spec)
    assert pretty_print(reparse(once)) == once


def test_lightweight_digest_events_block():
    text = pretty_print(crysl(SHA256_DIGEST_RULE))
    events = text.split("EVENTS\n", 1)[1].split("\n\n", 1)[0]
    assert events == (
        "    c : SHA256Digest();\n"
        "    u : update(input);\n"
        "    f : doFinal(out, outOff);"
    )


def test_literal_sets_are_sorted_and_canonical():
    one = crysl(MESSAGEDIGEST_RULE)
    reordered = MESSAGEDIGEST_RULE.replace(
        '{"SHA-256", "SHA-384", "SHA-512", "BLAKE2B-512"}',
        '{"SHA-512", "BLAKE2B-512", "SHA-256", "SHA-384"}',
    )
    other = crysl(reordered)
    assert one == other
    assert pretty_print(one) == pretty_print(other)
    assert '{"BLAKE2B-512", "SHA-256", "SHA-384", "SHA-512"}' in pretty_print(one)


def test_output_has_no_trailing_whitespace_and_ends_with_newline():
    text = pretty_print(crysl(MESSAGEDIGEST_RULE))
    assert text.endswith("\n")
    assert not text.endswith("\n\n")
    for line in text.splitlines():
        assert line == line.rstrip()


def test_abstract_rule_renders_its_variation_points():
    spec = parse_abstract(SourceFile.for_text(ABSTRACT_FACTORY, "abstract"))
    text = pretty_print(spec)
    assert text.startswith("ABSTRACT SPEC AbstractFactory<T>")
    assert "    <T> primitive;" in text
    again = parse_abstract(SourceFile.for_text(text, "abstract"))
    assert again == spec
    assert pretty_print(again) == text


def test_emit_rejects_a_rule_with_variation_points(tmp_path):
    spec = CrySLSpec(
        class_name="com.example.Api",
        objects=(ObjectDecl("int", "x"),),
        events=(EventDecl("a", None, "alpha", ()),),
        aggregates=(),
        order=Atom("a"),
        constraints=(Membership("x", MetaVarRef("Hole")),),
    )
    valid = crysl(MESSAGEDIGEST_RULE)
    with pytest.raises(ValueError, match=r"\$Hole"):
        emit(_result(valid, spec), tmp_path / "out")
    assert not (tmp_path / "out").exists()  # not even the root, nor a manifest

    (tmp_path / "out").mkdir()
    with pytest.raises(ValueError, match=r"\$Hole"):
        emit(_result(valid, spec), tmp_path / "out")
    assert not list((tmp_path / "out").iterdir())


def test_round_trip_on_randomized_rules():
    rng = random.Random(20260810)
    for _ in range(200):
        spec = random_spec(rng)
        text = pretty_print(spec)
        again = reparse(text)
        assert again == spec
        assert pretty_print(again) == text


def _result(*specs: CrySLSpec) -> BuildResult:
    generated = [(f"{spec.name}.crysl", spec) for spec in specs]
    return BuildResult(generated=generated, diagnostics=[],
                       stats=BuildStats(len(specs), 0, len(specs)))


def test_emit_writes_one_file_per_rule(tmp_path):
    a = crysl(MESSAGEDIGEST_RULE)
    b = crysl(SHA256_DIGEST_RULE)
    out = tmp_path / "rules"
    written = emit(_result(a, b), out)
    assert [p.name for p in written] == ["MessageDigest.crysl", "SHA256Digest.crysl"]
    for path in written:
        assert path.parent == out
        assert reparse(path.read_text(encoding="utf-8"))


def test_emit_empty_result_creates_root(tmp_path):
    out = tmp_path / "empty"
    assert emit(_result(), out) == []
    assert out.is_dir()


def test_reemit_is_byte_identical(tmp_path):
    result = _result(crysl(MESSAGEDIGEST_RULE))
    out = tmp_path / "rules"
    first = emit(result, out)[0].read_bytes()
    second = emit(result, out)[0].read_bytes()
    assert first == second


def test_a_later_emit_deletes_what_an_interrupted_one_made(tmp_path, monkeypatch):
    a, b = crysl(MESSAGEDIGEST_RULE), crysl(SHA256_DIGEST_RULE)
    c = crysl(MESSAGEDIGEST_RULE.replace("SPEC java.security.MessageDigest", "SPEC C"))
    out = tmp_path / "rules"
    emit(_result(a), out)

    replace = os.replace

    def interrupted(source, target):
        if os.path.basename(target) == "C.crysl":
            raise KeyboardInterrupt
        replace(source, target)

    monkeypatch.setattr(emitter.os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        emit(_result(a, b, c), out)
    monkeypatch.setattr(emitter.os, "replace", replace)
    listing = sorted(p.name for p in out.iterdir())
    assert listing == [MANIFEST, "MessageDigest.crysl", "SHA256Digest.crysl"]
    (out / emitter._temporary("C.crysl")).write_bytes(b"left by a kill\n")

    emit(_result(a), out)
    assert sorted(p.name for p in out.iterdir()) == [MANIFEST, "MessageDigest.crysl"]
    assert json.loads((out / MANIFEST).read_text(encoding="utf-8")) == ["MessageDigest.crysl"]


SPECIAL_STRINGS = ['"', "\\", "\n", "\x7f", "\u2028", "\udce9", "é.crysl", ""]
JSON_STRINGS = st.one_of(
    st.text(st.characters(max_codepoint=0x7F), max_size=8),
    st.text(st.characters(exclude_categories=()), max_size=8),  # lone surrogates too
    st.sampled_from(SPECIAL_STRINGS),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | JSON_STRINGS,
    lambda values: st.lists(values, max_size=4) | st.lists(values, max_size=3).map(tuple)
    | st.dictionaries(JSON_STRINGS, values, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example([])
@example(SPECIAL_STRINGS)
@example({"": {}, "a": [[], {"\u2028": None}], "b": (1.5, -0, True, False)})
def test_json_text_lays_out_a_value_as_json_dumps_with_indent_2(value):
    assert "".join(emitter.json_text(value)) == json.dumps(value, indent=2)


def test_a_rebuild_leaves_no_cyclic_garbage(tmp_path):
    result = _result(crysl(MESSAGEDIGEST_RULE), crysl(SHA256_DIGEST_RULE))
    out = tmp_path / "rules"
    emit(result, out)
    assert cyclic_garbage(lambda: emit(result, out)) == []
    names = ["MessageDigest.crysl", "SHA256Digest.crysl"]
    assert (out / MANIFEST).read_bytes() == (json.dumps(names, indent=2) + "\n").encode("ascii")


def test_emit_rejects_escaping_file_names(tmp_path):
    spec = crysl(MESSAGEDIGEST_RULE)
    result = BuildResult(generated=[("../evil.crysl", spec)], diagnostics=[],
                         stats=BuildStats(1, 0, 1))
    with pytest.raises(ValueError):
        emit(result, tmp_path / "rules")
