from __future__ import annotations

import pytest

from cryslkit import (
    SourceFile,
    apply_refinement,
    load,
    parse_abstract,
    parse_config,
    parse_refinement,
    pretty_print,
    resolve,
    run_build,
)
from cryslkit.diagnostics import has_errors
from cryslkit.model import LiteralSet, has_variation_points
from cryslkit.preprocessor import RefinementError, SpecRegistry

from conftest import (
    ABSTRACT_FACTORY,
    ABSTRACT_MESSAGEDIGEST,
    DIGEST_FAMILY_REFINEMENTS,
    PROVIDER_REFINEMENTS,
)

BC_ALGS = frozenset(
    {"Blake2s", "Blake2b", "GOST-3411", "SHA-256", "SHA-384", "SHA-512", "Whirlpool"}
)


def mcsl(text, path="rule.mcsl"):
    return parse_abstract(SourceFile.for_text(text, "abstract", path))


def refs(text, path="r.ref"):
    return parse_refinement(SourceFile.for_text(text, "refinement", path))


def registry_of(specs=(), refinements=()):
    registry = SpecRegistry()
    for spec in specs:
        registry.specs[spec.name] = spec
    for refinement in refinements:
        registry.refinements[refinement.name] = refinement
    return registry


# ---------------------------------------------------------------------------
# apply_refinement
# ---------------------------------------------------------------------------


def test_meta_variable_binding_resolves_constraint_set():
    base = mcsl(ABSTRACT_MESSAGEDIGEST)
    refinement = refs(PROVIDER_REFINEMENTS)[0]
    refined = apply_refinement(base, refinement)
    assert not has_variation_points(refined)
    assert refined.constraints[0].values == LiteralSet(BC_ALGS)
    assert refined.class_name == "java.security.MessageDigest"


def test_type_parameter_binding_produces_concrete_copy():
    base = mcsl(ABSTRACT_FACTORY)
    refinement = refs(
        "SPEC Aead REFINES AbstractFactory<com.google.crypto.tink.Aead>;"
    )[0]
    refined = apply_refinement(base, refinement)
    assert refined.class_name == "com.google.crypto.tink.Aead"
    assert refined.objects[1].type_name == "com.google.crypto.tink.Aead"
    assert not has_variation_points(refined)
    assert "<T>" not in pretty_print(refined)


def test_constructor_event_takes_simple_class_name():
    base = mcsl(
        """\
ABSTRACT SPEC Digest<T>
OBJECTS
    byte input;
EVENTS
    c : <T>();
    u : update(input);
ORDER
    c, u+
"""
    )
    refinement = refs(DIGEST_FAMILY_REFINEMENTS)[0]
    refined = apply_refinement(base, refinement)
    assert refined.class_name == "org.bouncycastle.crypto.digests.SHA256Digest"
    assert refined.events[0].method_name == "SHA256Digest"


def test_rebinding_within_one_refinement_is_a_conflict():
    base = mcsl(ABSTRACT_MESSAGEDIGEST)
    refinement = refs(
        'SPEC MD REFINES java.security.MessageDigest {'
        ' define AlgSet = {"SHA-256"}; define AlgSet = {"MD5"}; }'
    )[0]
    with pytest.raises(RefinementError) as err:
        apply_refinement(base, refinement)
    assert "already bound" in str(err.value)


def test_rebinding_across_refinements_is_a_conflict():
    base = mcsl(ABSTRACT_MESSAGEDIGEST)
    refinement = refs('SPEC MD REFINES java.security.MessageDigest { define AlgSet = {"MD5"}; }')[0]
    with pytest.raises(RefinementError):
        apply_refinement(base, refinement, already_bound=frozenset({"AlgSet"}))


def test_unknown_meta_variable_is_reported():
    base = mcsl(ABSTRACT_MESSAGEDIGEST)
    refinement = refs('SPEC MD REFINES java.security.MessageDigest { define Nope = {1}; }')[0]
    with pytest.raises(RefinementError) as err:
        apply_refinement(base, refinement)
    assert "unknown meta-variable '$Nope'" in str(err.value)


def test_type_argument_count_must_match():
    base = mcsl(ABSTRACT_MESSAGEDIGEST)  # no type parameters
    refinement = refs("SPEC MD REFINES MessageDigest<com.example.Impl>;")[0]
    with pytest.raises(RefinementError) as err:
        apply_refinement(base, refinement)
    assert "type parameter" in str(err.value)


def test_add_event_extends_aggregate_and_rejects_duplicates():
    base = mcsl(ABSTRACT_MESSAGEDIGEST)
    ok = refs(
        'SPEC MD REFINES java.security.MessageDigest {'
        ' define AlgSet = {"SHA-256"};'
        ' add event g3 : getInstance(algorithm, _, _) to Gets; }'
    )[0]
    refined = apply_refinement(base, ok)
    assert refined.aggregates[0].alternatives == ("g1", "g2", "g3")

    dup = refs(
        'SPEC MD2 REFINES java.security.MessageDigest {'
        ' define AlgSet = {"SHA-256"};'
        ' add event g1 : getInstance(algorithm) to Gets; }'
    )[0]
    with pytest.raises(RefinementError) as err:
        apply_refinement(base, dup)
    assert "duplicate label 'g1'" in str(err.value)


def test_remove_and_replace_ops():
    base = mcsl(ABSTRACT_MESSAGEDIGEST)
    refinement = refs(
        'SPEC MD REFINES java.security.MessageDigest {'
        ' define AlgSet = {"SHA-256"};'
        ' remove event g2;'
        ' replace order g1, u1+, d1; }'
    )[0]
    refined = apply_refinement(base, refinement)
    assert [e.label for e in refined.events] == ["g1", "u1", "d1"]
    assert refined.aggregates[0].alternatives == ("g1",)


@pytest.mark.parametrize(
    "kind, present, other", [("ensures", "digested", "requires"), ("requires", "seeded", "ensures")]
)
def test_predicate_ops_edit_their_own_section(kind, present, other):
    base = mcsl(ABSTRACT_MESSAGEDIGEST.replace("ENSURES\n", "REQUIRES\n    seeded[data];\nENSURES\n"))
    refinement = refs(
        'SPEC MD REFINES java.security.MessageDigest {'
        ' define AlgSet = {"SHA-256"};'
        f' add {kind} hashed[out];'
        f' remove {kind} {present}; }}'
    )[0]
    refined = apply_refinement(base, refinement)
    assert [(p.name, p.args) for p in getattr(refined, kind)] == [("hashed", ("out",))]
    assert getattr(refined, other) == getattr(base, other)

    twice = refs(
        f"SPEC MD REFINES java.security.MessageDigest {{\n"
        f"    remove {kind} {present};\n    remove {kind} {present};\n}}"
    )[0]
    with pytest.raises(RefinementError) as err:
        apply_refinement(base, twice)
    assert err.value.diagnostic.render() == (
        f"r.ref:3:5: error: no {kind} predicate named '{present}'"
    )


def test_remove_constraint_matches_structurally():
    base = mcsl(ABSTRACT_MESSAGEDIGEST)
    refinement = refs(
        "SPEC MD REFINES java.security.MessageDigest {"
        " add constraint digestAlg in {1, 2};"
        ' define AlgSet = {"SHA-256"};'
        " remove constraint digestAlg in {2, 1}; }"
    )[0]
    refined = apply_refinement(base, refinement)
    assert len(refined.constraints) == 1  # only the resolved membership remains


# ---------------------------------------------------------------------------
# resolve
# ---------------------------------------------------------------------------


def test_template_family_expands_one_rule_per_refinement():
    registry = registry_of(
        specs=[mcsl(open_template())],
        refinements=refs(DIGEST_FAMILY_REFINEMENTS),
    )
    result = resolve(registry)
    assert not result.diagnostics
    assert [name for name, _ in result.generated] == [
        "SHA256.crysl", "SHA384.crysl", "SHA512.crysl", "SHA512t.crysl",
    ]
    assert result.stats.refinements_applied == 4
    assert result.stats.specs_emitted == 4


def open_template() -> str:
    return """\
ABSTRACT SPEC Digest<T>
OBJECTS
    byte input;
    byte[] out;
    int outOff;
EVENTS
    c : <T>();
    u : update(input);
    f : doFinal(out, outOff);
ORDER
    c, u+, f
ENSURES
    digested[out];
"""


def test_unrefined_template_yields_unbound_error():
    registry = registry_of(specs=[mcsl(ABSTRACT_MESSAGEDIGEST)])
    result = resolve(registry)
    assert result.generated == []
    assert len(result.diagnostics) == 1
    assert "unbound $AlgSet" in result.diagnostics[0].message


def test_concrete_specs_pass_through_unchanged():
    from conftest import MESSAGEDIGEST_RULE

    registry = registry_of(specs=[mcsl(MESSAGEDIGEST_RULE)])
    result = resolve(registry)
    assert not result.diagnostics
    assert [name for name, _ in result.generated] == ["MessageDigest.crysl"]
    assert result.stats.specs_emitted == result.stats.specs_loaded == 1


def test_refinement_that_leaves_meta_variables_unbound_fails():
    base_text = ABSTRACT_MESSAGEDIGEST.replace(
        "algorithm in $AlgSet;", "algorithm in $AlgSet;\n    digestAlg in $Other;"
    )
    registry = registry_of(
        specs=[mcsl(base_text)],
        refinements=refs(
            'SPEC MD REFINES java.security.MessageDigest { define AlgSet = {"SHA-256"}; }'
        ),
    )
    result = resolve(registry)
    assert result.generated == []
    assert any("unbound $Other" in d.message for d in result.diagnostics)


def test_missing_base_spec_is_reported():
    registry = registry_of(refinements=refs("SPEC X REFINES Ghost;"))
    result = resolve(registry)
    assert any("base spec not found" in d.message for d in result.diagnostics)


def test_resolution_is_deterministic():
    def build():
        registry = registry_of(
            specs=[mcsl(open_template())],
            refinements=refs(DIGEST_FAMILY_REFINEMENTS),
        )
        result = resolve(registry)
        return [(name, pretty_print(spec)) for name, spec in result.generated]

    assert build() == build()


def test_refinements_of_distinct_bases_commute():
    md = mcsl(ABSTRACT_MESSAGEDIGEST)
    factory = mcsl(ABSTRACT_FACTORY)
    r_md = refs('SPEC MD REFINES java.security.MessageDigest { define AlgSet = {"SHA-256"}; }')
    r_f = refs("SPEC Aead REFINES AbstractFactory<com.google.crypto.tink.Aead>;")

    forward = resolve(registry_of([md, factory], r_md + r_f))
    backward = resolve(registry_of([md, factory], r_f + r_md))
    assert {n: pretty_print(s) for n, s in forward.generated} == {
        n: pretty_print(s) for n, s in backward.generated
    }


def test_same_base_refinements_keep_load_order():
    template = mcsl(open_template())
    family = refs(DIGEST_FAMILY_REFINEMENTS)
    forward = resolve(registry_of([template], family))
    backward = resolve(registry_of([template], list(reversed(family))))
    assert [n for n, _ in forward.generated] == [
        "SHA256.crysl", "SHA384.crysl", "SHA512.crysl", "SHA512t.crysl",
    ]
    assert [n for n, _ in backward.generated] == [
        "SHA512t.crysl", "SHA512.crysl", "SHA384.crysl", "SHA256.crysl",
    ]
    # Same rules either way; only the (load) order differs by contract.
    assert dict(
        (n, pretty_print(s)) for n, s in forward.generated
    ) == dict((n, pretty_print(s)) for n, s in backward.generated)


def test_meta_variables_stay_bound_across_refinements_of_one_base():
    base = mcsl(ABSTRACT_MESSAGEDIGEST.replace(
        "algorithm in $AlgSet;", "algorithm in $AlgSet;\n    digestAlg in $Other;"
    ))

    def build(*bodies):
        text = "\n".join(
            f"SPEC MD{i} REFINES java.security.MessageDigest {{ {body} }}"
            for i, body in enumerate(bodies, 1)
        )
        result = resolve(registry_of([base], refs(text)))
        return [n for n, _ in result.generated], [d.render() for d in result.diagnostics]

    keep_alg = 'define AlgSet = {"SHA-256"}; remove constraint digestAlg in $Other;'
    keep_other = 'define Other = {"SHA-1"}; remove constraint algorithm in $AlgSet;'
    assert build(keep_alg, keep_alg) == (
        ["MD1.crysl"],
        ["r.ref:2:48: error: meta-variable '$AlgSet' is already bound for 'MessageDigest'"],
    )
    assert build(keep_alg, keep_other) == (["MD1.crysl", "MD2.crysl"], [])
    # A refinement that fails binds nothing.
    assert build(keep_alg + " remove event nope;", keep_alg) == (
        ["MD2.crysl"], ["r.ref:1:116: error: unknown event 'nope'"],
    )


# ---------------------------------------------------------------------------
# load
# ---------------------------------------------------------------------------


def _config(text, path):
    return parse_config(SourceFile.for_text(text, "config", str(path)))


def test_load_counts_corpus_files(corpus_dir):
    config = parse_config(SourceFile.from_path(corpus_dir / "jca-android" / "bsi0116.conf"))
    registry, diags = load(config)
    assert not diags
    assert len(registry.specs) == 8
    assert len(registry.refinements) == 8
    assert list(registry.refinements) == [
        "Cipher", "KeyGenerator", "Mac", "MessageDigest", "SecureRandom",
        "Signature", "KeyStore", "SSLContext",
    ]


def test_loading_same_refinement_directory_twice_is_duplicate_error(tmp_path):
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "md.mcsl").write_text(ABSTRACT_MESSAGEDIGEST, encoding="utf-8")
    (tmp_path / "layer").mkdir()
    (tmp_path / "layer" / "md.ref").write_text(
        'SPEC MD REFINES java.security.MessageDigest { define AlgSet = {"SHA-256"}; }',
        encoding="utf-8",
    )
    config = _config(
        "config x {\n  src = .;\n  out = out/;\n  load spec base/;\n"
        "  load refinement layer/;\n  load refinement layer/;\n}",
        tmp_path / "x.conf",
    )
    registry, diags = load(config)
    assert any("duplicate refinement name" in d.message for d in diags)
    assert len(registry.refinements) == 1


def test_loading_same_spec_directory_twice_reports_each_duplicate_once(tmp_path):
    (tmp_path / "base").mkdir()
    bad = tmp_path / "base" / "bad.crysl"
    bad.write_text(
        "\nSPEC org.example.Bad\nOBJECTS\n    int a;\nEVENTS\n    e : go(b);\nORDER\n    e, f\n",
        encoding="utf-8",
    )
    ok = tmp_path / "base" / "ok.crysl"
    ok.write_text(
        "SPEC org.example.Ok\nOBJECTS\n    int a;\nEVENTS\n    e : go(a);\nORDER\n    e\n",
        encoding="utf-8",
    )
    config = _config(
        "config x {\n  src = .;\n  out = out/;\n  load spec base/;\n  load spec base/;\n}",
        tmp_path / "x.conf",
    )
    registry, diags = load(config)
    assert [d.render() for d in diags] == [
        f"{bad}:6:5: error: parameter 'b' is not a declared object",
        f"{bad}:8:8: error: unresolved label 'f'",
        f"{bad}:2:1: error: duplicate spec name 'Bad' (already loaded from {bad})",
        f"{ok}:1:1: error: duplicate spec name 'Ok' (already loaded from {ok})",
    ]
    assert list(registry.specs) == ["Bad", "Ok"]


def test_missing_src_directory_is_reported(tmp_path):
    config = _config(
        "config x {\n  src = nowhere/;\n  out = out/;\n  load spec base/;\n}",
        tmp_path / "x.conf",
    )
    registry, diags = load(config)
    assert has_errors(diags)
    assert any("missing path" in d.message for d in diags)
    assert not registry.specs


def test_missing_load_path_is_reported(tmp_path):
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "md.mcsl").write_text(ABSTRACT_MESSAGEDIGEST, encoding="utf-8")
    config = _config(
        "config x {\n  src = .;\n  out = out/;\n  load spec base/;\n"
        "  load refinement ghost/;\n}",
        tmp_path / "x.conf",
    )
    _, diags = load(config)
    assert any("missing path" in d.message and "ghost" in d.message for d in diags)


def test_whole_build_runs_clean_on_bundled_standards(corpus_dir):
    for name in ("fips", "bsi", "ecrypt"):
        config = parse_config(SourceFile.from_path(corpus_dir / "standards" / f"{name}.conf"))
        result = run_build(config)
        assert not result.diagnostics
        assert [n for n, _ in result.generated] == ["MessageDigest.crysl"]


def test_generated_rules_are_concrete_and_valid(corpus_dir):
    from cryslkit import validate_spec

    for conf in sorted(corpus_dir.rglob("*.conf")):
        config = parse_config(SourceFile.from_path(conf))
        result = run_build(config)
        assert not has_errors(result.diagnostics), conf
        assert result.stats.specs_emitted == len(result.generated)
        for name, spec in result.generated:
            assert validate_spec(spec) == []
            text = pretty_print(spec)
            assert "$" not in text, name
            assert "<" not in text, name
