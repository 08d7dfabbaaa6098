from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from cryslkit import SourceFile, metrics, parse_config, preprocessor, run_build
from cryslkit.metrics import (
    _line_stats,
    count_lines,
    normalize_lines,
    savings,
    savings_ratio,
)


def test_three_identical_lines_make_two_duplicates(tmp_path):
    path = tmp_path / "a.crysl"
    path.write_text("x;\nx;\nx;\n", encoding="utf-8")
    stats, _ = count_lines([path])
    assert stats.files == 1
    assert stats.total_lines == 3
    assert stats.duplicate_lines == 2
    assert stats.unique_duplicated == 1


def test_empty_file_counts_nothing(tmp_path):
    path = tmp_path / "empty.crysl"
    path.write_text("", encoding="utf-8")
    stats, _ = count_lines([path])
    assert stats.total_lines == 0
    assert stats.duplicate_lines == 0
    assert stats.unique_duplicated == 0


def test_blank_and_comment_only_lines_are_dropped():
    lines = normalize_lines("  a;  \n\n// only a comment\n   \nb;\n  // x\n")
    assert lines == ["a;", "b;"]


def test_inline_comments_stay_part_of_the_line():
    assert normalize_lines("a; // trailing\n") == ["a; // trailing"]


def test_duplicates_span_the_whole_file_set(tmp_path):
    (tmp_path / "a.crysl").write_text("shared;\nonly-a;\n", encoding="utf-8")
    (tmp_path / "b.crysl").write_text("shared;\nonly-b;\n", encoding="utf-8")
    stats, _ = count_lines(sorted(tmp_path.iterdir()))
    assert stats.total_lines == 4
    assert stats.duplicate_lines == 1
    assert stats.unique_duplicated == 1


def test_count_is_permutation_invariant(tmp_path):
    files = []
    rng = random.Random(5)
    for i in range(6):
        path = tmp_path / f"f{i}.crysl"
        path.write_text("\n".join(rng.choice("abcd") + ";" for _ in range(10)), encoding="utf-8")
        files.append(path)
    baseline = count_lines(files)
    for _ in range(5):
        rng.shuffle(files)
        assert count_lines(files) == baseline


@given(st.lists(st.text(alphabet="ab;x ", max_size=8), max_size=30))
def test_doubling_a_document_set_doubles_totals(lines):
    text = "\n".join(lines)
    single = _line_stats([normalize_lines(text)])
    doubled = _line_stats([normalize_lines(text)] * 2)
    assert doubled.total_lines == 2 * single.total_lines
    assert doubled.duplicate_lines >= single.total_lines if single.total_lines else True


def test_unreadable_file_is_reported_and_skipped(tmp_path):
    good = tmp_path / "good.crysl"
    good.write_text("a;\n", encoding="utf-8")
    missing = tmp_path / "missing.crysl"
    stats, diags = count_lines([good, missing])
    assert stats.files == 1
    assert stats.total_lines == 1
    assert [d.path for d in diags] == [str(missing)]


def test_an_unreadable_or_non_utf8_file_comes_back_as_a_diagnostic(tmp_path, corpus_dir):
    missing = tmp_path / "missing.crysl"
    latin1 = tmp_path / "latin1.crysl"
    latin1.write_bytes(b"// caf\xe9\n")
    stats, diags = count_lines([missing, latin1])
    assert stats.files == 0
    assert [d.render() for d in diags] == [
        f"{missing}:1:1: error: No such file or directory",
        f"{latin1}:1:7: error: byte 0xe9 is not valid UTF-8",
    ]
    config = parse_config(SourceFile.from_path(corpus_dir / "standards" / "fips.conf"))
    report, diags = savings([missing], [config])
    assert report.meta.files == 0 and report.generated.files == 1
    assert [d.render() for d in diags] == [f"{missing}:1:1: error: No such file or directory"]


def test_savings_ratio_formula():
    assert savings_ratio(100, 400) == pytest.approx(0.75)
    assert savings_ratio(400, 100) == pytest.approx(-3.0)
    assert savings_ratio(1, 0) == float("-inf")


def test_single_small_config_has_negative_savings_and_no_breakeven(corpus_dir):
    config = parse_config(SourceFile.from_path(corpus_dir / "standards" / "fips.conf"))
    meta = sorted(
        p for p in (corpus_dir / "standards").rglob("*")
        if p.is_file() and p.suffix in (".mcsl", ".ref", ".conf")
        and "_generated" not in p.parts
    )
    report, diags = savings(meta, [config])
    assert diags == []
    assert report.breakeven is None
    assert report.savings_ratio < 0
    assert report.cumulative[0] == report.generated.total_lines


def test_savings_normalizes_each_text_once(corpus_dir, monkeypatch):
    calls = []
    monkeypatch.setattr(
        metrics, "normalize_lines", lambda text: calls.append(text) or normalize_lines(text)
    )
    config = parse_config(SourceFile.from_path(corpus_dir / "standards" / "fips.conf"))
    meta = sorted((corpus_dir / "standards" / "base").glob("*.mcsl"))
    report, _ = savings(meta, [config])
    assert report.generated.files > 0
    assert len(calls) == report.meta.files + report.generated.files


JCA_ANDROID_CONFIGS = [
    "base0108", "base0116", "base25plus",
    "bsi0108", "bsi0116", "bsi25plus",
    "cognicrypt0108", "cognicrypt0116", "cognicrypt25plus",
]


def jca_android_configs(corpus_dir):
    root = corpus_dir / "jca-android"
    return [parse_config(SourceFile.from_path(root / f"{n}.conf")) for n in JCA_ANDROID_CONFIGS]


def test_breakeven_and_monotone_cumulative_on_bundled_corpus(corpus_dir):
    root = corpus_dir / "jca-android"
    configs = jca_android_configs(corpus_dir)
    meta = sorted(
        p for p in root.rglob("*")
        if p.is_file() and p.suffix in (".mcsl", ".crysl", ".ref", ".conf")
        and "_generated" not in p.parts
    )
    report, _ = savings(meta, configs)
    assert report.meta.total_lines < report.generated.total_lines
    assert report.breakeven == 2
    assert list(report.cumulative) == sorted(report.cumulative)

    # Past breakeven the ratio strictly improves with every configuration.
    ratios = [
        savings(meta, configs[:k])[0].savings_ratio
        for k in range(report.breakeven, len(configs) + 1)
    ]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_savings_parses_each_distinct_file_once(corpus_dir, monkeypatch):
    rules, refinements = [], []
    read_rule, parse_refinement = preprocessor.read_rule, preprocessor.parse_refinement
    monkeypatch.setattr(preprocessor, "read_rule", lambda path: rules.append(path) or read_rule(path))
    monkeypatch.setattr(preprocessor, "parse_refinement",
                        lambda source: refinements.append(source.path) or parse_refinement(source))
    configs = jca_android_configs(corpus_dir)
    savings([], configs)
    assert len(rules) == len(set(rules)) == 8
    assert refinements and len(refinements) == len(set(refinements))

    # Builds that share nothing each parse the base rules again.
    rules.clear()
    for config in configs:
        run_build(config)
    assert len(rules) == 72


def test_failed_build_aborts_with_diagnostics(tmp_path):
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "md.mcsl").write_text(
        "SPEC X\nOBJECTS\n    int a;\nEVENTS\n    e : go(a);\nORDER\n    e\n"
        "CONSTRAINTS\n    a in $Hole;\n",
        encoding="utf-8",
    )
    conf = tmp_path / "x.conf"
    conf.write_text(
        "config x {\n  src = .;\n  out = out/;\n  load spec base/;\n}", encoding="utf-8"
    )
    config = parse_config(SourceFile.from_path(conf))
    report, diags = savings([], [config])
    assert report is None
    assert [d.render() for d in diags] == [
        f"{tmp_path / 'base' / 'md.mcsl'}:1:1: error: unbound $Hole in 'X' (no covering refinement)",
        f"{conf}:1:1: error: configuration 'x' failed to build",
    ]
