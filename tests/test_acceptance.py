"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (run with ``pytest -s`` to see them
on success). Numeric goldens for the bundled nine-configuration corpus are
recorded on the first run into ``tests/golden/jca_android_metrics.json`` and
are exact (tolerance zero) afterwards.
"""

from __future__ import annotations

import functools
import json
import random
import time
from pathlib import Path

import pytest

from cryslkit import (
    SourceFile,
    check_trace,
    compile_order,
    compile_rules,
    emit,
    load_trace,
    parse_abstract,
    parse_config,
    parse_crysl,
    pretty_print,
    run_build,
)
from cryslkit.metrics import report_as_dict, savings

from conftest import REPO_ROOT
from oracles import (
    all_words,
    dfa_verdict,
    enumerate_language,
    random_label_alphabet,
    random_order_expr,
    random_spec,
)

CORPUS = REPO_ROOT / "corpus"
GOLDEN = REPO_ROOT / "tests" / "golden"

ANDROID_CONFIGS = (
    "base0108", "base0116", "base25plus",
    "bsi0108", "bsi0116", "bsi25plus",
    "cognicrypt0108", "cognicrypt0116", "cognicrypt25plus",
)


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL - {title}")
                raise
            print(f"criterion {number}: PASS - {title}")

        return wrapper

    return decorate


def build_config(path: Path):
    config = parse_config(SourceFile.from_path(path))
    result = run_build(config)
    assert not result.diagnostics, [d.render() for d in result.diagnostics]
    return config, result


def android_rule_sets():
    rule_sets = {}
    for name in ANDROID_CONFIGS:
        _, result = build_config(CORPUS / "jca-android" / f"{name}.conf")
        rule_sets[name] = compile_rules([spec for _, spec in result.generated])
    return rule_sets


@criterion(1, "digest template plus four refinements reproduces the golden rules")
def test_golden_generation(tmp_path):
    started = time.perf_counter()
    config, result = build_config(CORPUS / "bouncycastle" / "digests.conf")
    written = emit(result, tmp_path / "digests")
    elapsed = time.perf_counter() - started

    names = [p.name for p in written]
    assert names == ["SHA256.crysl", "SHA384.crysl", "SHA512.crysl", "SHA512t.crysl"]
    for golden_name in ("SHA256.crysl", "SHA512.crysl"):
        produced = (tmp_path / "digests" / golden_name).read_bytes()
        expected = (GOLDEN / golden_name).read_bytes()
        assert produced == expected, f"{golden_name} deviates from the golden file"
    assert elapsed < 1.0, f"generation took {elapsed:.3f}s"


@criterion(2, "meta-variable resolution yields the provider algorithm sets")
def test_meta_variable_resolution():
    _, result = build_config(CORPUS / "bcprov" / "bcprov.conf")
    rules = dict(result.generated)

    digest = rules["MessageDigest.crysl"]
    algorithm_sets = [
        c.values.values for c in digest.constraints if getattr(c, "var", None) == "algorithm"
    ]
    assert algorithm_sets == [
        frozenset({"Blake2s", "Blake2b", "GOST-3411", "SHA-256", "SHA-384",
                   "SHA-512", "Whirlpool"})
    ]

    keygen = rules["KeyGenerator.crysl"]
    implications = [c for c in keygen.constraints if type(c).__name__ == "Implication"]
    assert len(implications) == 1
    assert implications[0].lhs.values.values == frozenset({"AES"})
    assert implications[0].rhs.var == "keySize"
    assert implications[0].rhs.values.values == frozenset({128, 192, 256})


@criterion(3, "the standards layers reproduce the recommendation matrix")
def test_standards_corpus():
    sets = {}
    rules = {}
    for name in ("fips", "bsi", "ecrypt"):
        _, result = build_config(CORPUS / "standards" / f"{name}.conf")
        assert [n for n, _ in result.generated] == ["MessageDigest.crysl"]
        spec = result.generated[0][1]
        sets[name] = spec.constraints[0].values.values
        rules[name] = compile_rules([spec])

    common = {"SHA-256", "SHA-384", "SHA-512", "SHA-512/256",
              "SHA3-256", "SHA3-384", "SHA3-512", "SHAKE128", "SHAKE256"}
    for name in sets:
        assert common <= sets[name], f"{name} is missing commonly recommended algorithms"
    assert "SHA-224" in sets["fips"] and "SHA-224" not in sets["bsi"] | sets["ecrypt"]
    assert "SHA-512/224" in sets["fips"] and "SHA-512/224" not in sets["bsi"] | sets["ecrypt"]
    for blessed_only_by_ecrypt in ("WHIRLPOOL", "BLAKE2B-512", "BLAKE2S-256"):
        assert blessed_only_by_ecrypt in sets["ecrypt"]
        assert blessed_only_by_ecrypt not in sets["fips"] | sets["bsi"]
    for name in sets:
        assert "MD5" not in sets[name] and "SHA-1" not in sets[name]

    blake, diags = load_trace(CORPUS / "traces" / "standards" / "blake_digest.jsonl")
    assert not diags
    md5, _ = load_trace(CORPUS / "traces" / "standards" / "md5_digest.jsonl")
    blake_violations = {n: len(check_trace(r, blake).violations) for n, r in rules.items()}
    assert blake_violations["ecrypt"] == 0
    assert blake_violations["fips"] > 0 and blake_violations["bsi"] > 0
    assert all(len(check_trace(r, md5).violations) > 0 for r in rules.values())


def _android_savings():
    root = CORPUS / "jca-android"
    configs = [parse_config(SourceFile.from_path(root / f"{n}.conf")) for n in ANDROID_CONFIGS]
    meta_paths = sorted(
        p for p in root.rglob("*")
        if p.is_file() and p.suffix in (".crysl", ".mcsl", ".ref", ".conf")
        and "_generated" not in p.parts
    )
    report, diags = savings(meta_paths, configs)
    assert diags == []
    return report


@criterion(4, "compactness: meta sources undercut the generated family, breakeven at 2")
def test_compactness_direction():
    report = _android_savings()
    assert report.meta.total_lines < report.generated.total_lines
    assert report.savings_ratio > 0.5
    assert report.breakeven == 2

    golden_path = GOLDEN / "jca_android_metrics.json"
    snapshot = report_as_dict(report)
    if not golden_path.exists():
        golden_path.write_text(json.dumps(snapshot, indent=2) + "\n", encoding="utf-8")
    recorded = json.loads(golden_path.read_text(encoding="utf-8"))
    assert snapshot == recorded, "corpus metrics drifted from the recorded golden numbers"


@criterion(5, "duplication: the generated family duplicates at least twice as densely")
def test_duplication_direction():
    report = _android_savings()
    meta_ratio = report.meta.duplicate_lines / report.meta.total_lines
    generated_ratio = report.generated.duplicate_lines / report.generated.total_lines
    assert generated_ratio >= 2 * meta_ratio, (generated_ratio, meta_ratio)


@criterion(6, "DFA acceptance equals the brute-force oracle on 200 random orders")
def test_automaton_against_oracle():
    started = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    mismatches = 0
    for _ in range(200):
        alphabet = random_label_alphabet(rng, max_size=4)
        expr = random_order_expr(rng, alphabet, depth=rng.randint(0, 4))
        automaton = compile_order(expr)
        language = enumerate_language(expr, 6)
        for word in all_words(alphabet, 6):
            expected = word in language
            verdict = dfa_verdict(automaton, word)[0] == "accepted"
            if verdict != expected:
                mismatches += 1
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


def _bundled_rule_sources():
    """Each bundled rule with the language it round-trips through: ``.mcsl``
    sources as abstract rules, generated rules as CrySL rules."""
    for path in sorted(CORPUS.rglob("*.mcsl")):
        yield "abstract", parse_abstract(SourceFile.from_path(path))
    for conf in sorted(CORPUS.rglob("*.conf")):
        _, result = build_config(conf)
        for _, spec in result.generated:
            yield "crysl", spec


@criterion(7, "parse/pretty-print round trip holds on the corpus and 500 random rules")
def test_round_trip_property():
    failures = 0
    checked = 0
    for language, spec in _bundled_rule_sources():
        text = pretty_print(spec)
        parse = parse_abstract if language == "abstract" else parse_crysl
        again = parse(SourceFile.for_text(text, language, "roundtrip"))
        if again != spec or pretty_print(again) != text:
            failures += 1
        checked += 1

    rng = random.Random(0xD15EA5E)
    for _ in range(500):
        spec = random_spec(rng)
        text = pretty_print(spec)
        again = parse_crysl(SourceFile.for_text(text, "crysl", "roundtrip"))
        if again != spec or pretty_print(again) != text:
            failures += 1
        checked += 1
    assert failures == 0
    assert checked >= 500 + 8


@criterion(8, "violation counts keep the Base family strictly below BSI and CogniCrypt")
def test_rule_set_sensitivity():
    trace_files = sorted((CORPUS / "traces" / "jca-android").glob("*.jsonl"))
    traces = []
    trace_count = 0
    for path in trace_files:
        events, diags = load_trace(path)
        assert not diags
        traces.append(events)
        trace_count += len({e.object_id for e in events})
    assert trace_count >= 50, f"only {trace_count} object traces bundled"

    totals = {}
    for name, rules in android_rule_sets().items():
        totals[name] = sum(len(check_trace(rules, trace).violations) for trace in traces)

    for version in ("0108", "0116", "25plus"):
        base = totals[f"base{version}"]
        assert base < totals[f"bsi{version}"], totals
        assert base < totals[f"cognicrypt{version}"], totals
    assert max(totals[f"base{v}"] for v in ("0108", "0116", "25plus")) < min(
        v for k, v in totals.items() if not k.startswith("base")
    ), totals
