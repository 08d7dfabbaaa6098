from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cryslkit.cli import main
from cryslkit.emitter import MANIFEST
from cryslkit.parsing import ParseError, SourceFile, parse_config, parse_crysl
from cryslkit import cli, metrics, parsing, tracecheck
from cryslkit.tracecheck import TraceEvent, check_trace, compile_rules, load_trace

from conftest import MESSAGEDIGEST_RULE, REPO_ROOT, cyclic_garbage, wide_rule_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_writes_rule_files(corpus_copy, capsys):
    conf = corpus_copy / "bouncycastle" / "digests.conf"
    code, out, err = run_cli(capsys, "build", str(conf))
    assert code == 0
    out_dir = corpus_copy / "bouncycastle" / "_generated" / "digests"
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == [MANIFEST, "SHA256.crysl", "SHA384.crysl", "SHA512.crysl", "SHA512t.crysl"]
    assert [line.split("/")[-1] for line in out.splitlines()] == [
        "SHA256.crysl", "SHA384.crysl", "SHA512.crysl", "SHA512t.crysl",
    ]
    assert "wrote 4 file(s)" in err


def test_build_dry_run_writes_nothing(corpus_copy, capsys):
    conf = corpus_copy / "bouncycastle" / "digests.conf"
    code, out, err = run_cli(capsys, "build", str(conf), "--dry-run", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dry_run"] is True
    assert len(payload["files"]) == 4
    assert payload["stats"] == {
        "specs_loaded": 1, "refinements_applied": 4, "specs_emitted": 4,
    }
    assert not (corpus_copy / "bouncycastle" / "_generated").exists()


def test_build_reports_errors_with_exit_1(tmp_path, capsys):
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "md.mcsl").write_text(
        "SPEC X\nOBJECTS\n    int a;\nEVENTS\n    e : go(a);\nORDER\n    e\n"
        "CONSTRAINTS\n    a in $Hole;\n",
        encoding="utf-8",
    )
    conf = tmp_path / "broken.conf"
    conf.write_text(
        "config broken {\n  src = .;\n  out = out/;\n  load spec base/;\n}",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "build", str(conf))
    assert code == 1
    assert "unbound $Hole" in err


@pytest.mark.parametrize("argv", [["build"], ["build", "--dry-run"], ["build", "--json"]])
def test_build_refuses_a_nul_in_a_configuration_path_at_it(corpus_copy, capsys, argv):
    conf = corpus_copy / "bouncycastle" / "digests.conf"
    conf.write_text(conf.read_text(encoding="utf-8").replace("_generated/digests", "a\0b"),
                    encoding="utf-8")
    line = conf.read_text(encoding="utf-8").split("\n").index("    out = a\0b;") + 1
    assert run_cli(capsys, *argv, str(conf)) == (
        1, "", f"{conf}:{line}:12: error: expected ';', found '\\u0000'\n")
    assert not (corpus_copy / "bouncycastle" / "a").exists()


@pytest.mark.parametrize("out, blocker", [("_generated/digests", "_generated/digests"),
                                          ("_generated/file/digests", "_generated/file")])
def test_build_locates_an_out_that_cannot_be_a_directory(corpus_copy, capsys, out, blocker):
    conf = corpus_copy / "bouncycastle" / "digests.conf"
    conf.write_text(conf.read_text(encoding="utf-8").replace("_generated/digests", out),
                    encoding="utf-8")
    generated = corpus_copy / "bouncycastle" / "_generated"
    generated.mkdir()
    (corpus_copy / "bouncycastle" / blocker).write_text("kept\n", encoding="utf-8")
    out_root, blocker = conf.parent / out, conf.parent / blocker
    problem = ("is not a directory" if out_root == blocker
               else f"cannot be made: '{blocker}' is not a directory")
    for argv in (["build", str(conf)], ["build", str(conf), "--dry-run"]):
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (1, "")
        assert err.splitlines()[0] == f"{conf}:1:1: error: output path: out '{out_root}' {problem}"
        assert "Traceback" not in err
    assert [p.name for p in generated.iterdir()] == [blocker.name]
    assert blocker.read_text(encoding="utf-8") == "kept\n"


def test_build_records_an_overlong_integer_literal_and_goes_on(tmp_path, capsys):
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "X.mcsl").write_text(
        "SPEC X\nOBJECTS\n    int a;\nEVENTS\n    e : go(a);\nORDER\n    e\n"
        "CONSTRAINTS\n    a in $Sizes;\n",
        encoding="utf-8",
    )
    (tmp_path / "base" / "Y.crysl").write_text(
        "SPEC Y\nOBJECTS\n    int a;\nEVENTS\n    e : go(a);\nORDER\n    e\n",
        encoding="utf-8",
    )
    (tmp_path / "refs").mkdir()
    ref = tmp_path / "refs" / "big.ref"
    ref.write_text(f"SPEC X1 REFINES X {{\n    define Sizes = {{{'7' * 5000}}};\n}}\n",
                   encoding="utf-8")
    conf = tmp_path / "big.conf"
    conf.write_text(
        "config big {\n  src = .;\n  out = out/;\n  load spec base/;\n  load refinement refs/;\n}",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "build", str(conf))
    assert code == 1
    assert f"{ref}:2:21: error: integer literal of 5000 digits is too long" in err.splitlines()
    assert (tmp_path / "out" / "Y.crysl").is_file()  # the other rules are still built


def test_build_records_a_rule_file_that_is_not_utf8_and_goes_on(tmp_path, capsys):
    (tmp_path / "base").mkdir()
    latin1 = tmp_path / "base" / "X.crysl"
    latin1.write_bytes(
        b"SPEC X\n// caf\xe9\nOBJECTS\n    int a;\nEVENTS\n    e : go(a);\nORDER\n    e\n"
    )
    (tmp_path / "base" / "Y.crysl").write_text(
        "SPEC Y\nOBJECTS\n    int a;\nEVENTS\n    e : go(a);\nORDER\n    e\n",
        encoding="utf-8",
    )
    conf = tmp_path / "mixed.conf"
    conf.write_text(
        "config mixed {\n  src = .;\n  out = out/;\n  load spec base/;\n}", encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "build", str(conf))
    assert code == 1
    assert f"{latin1}:2:7: error: byte 0xe9 is not valid UTF-8" in err.splitlines()
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [MANIFEST, "Y.crysl"]


def test_build_locates_an_output_name_collision_at_the_colliding_spec(tmp_path, capsys):
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "X.crysl").write_text(
        "SPEC X\nOBJECTS\n    int a;\nEVENTS\n    e : go(a);\nORDER\n    e\n", encoding="utf-8"
    )
    cipher = tmp_path / "base" / "Cipher.crysl"
    cipher.write_text(
        "// the cipher rule\n\nSPEC javax.crypto.Cipher\nOBJECTS\n    int a;\n"
        "EVENTS\n    e : go(a);\nORDER\n    e\n",
        encoding="utf-8",
    )
    (tmp_path / "refs").mkdir()
    (tmp_path / "refs" / "c.ref").write_text("SPEC Cipher REFINES X;\n", encoding="utf-8")
    conf = tmp_path / "clash.conf"
    conf.write_text(
        "config clash {\n  src = .;\n  out = out/;\n  load spec base/;\n"
        "  load refinement refs/;\n}",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "build", str(conf))
    assert code == 1
    assert err.splitlines()[0] == (f"{cipher}:3:1: error: output file 'Cipher.crysl' "
                                   "already produced by refinement 'Cipher'")
    # Only the refinement's rule is written, the class it refines unchanged.
    out_dir = tmp_path / "out"
    assert out == f"{out_dir / 'Cipher.crysl'}\n"
    assert (out_dir / "Cipher.crysl").read_bytes() == (
        b"SPEC X\n\nOBJECTS\n    int a;\n\nEVENTS\n    e : go(a);\n\nORDER\n    e\n")
    assert json.loads((out_dir / MANIFEST).read_bytes()) == ["Cipher.crysl"]


def test_build_never_lists_or_writes_a_spec_that_failed_validation(tmp_path, capsys, monkeypatch):
    import cryslkit.preprocessor as preprocessor
    from cryslkit.model import validate_spec

    (tmp_path / "base").mkdir()
    bad = tmp_path / "base" / "Bad.crysl"
    bad.write_text(
        "\nSPEC org.example.Bad\nOBJECTS\n    int a;\nEVENTS\n    e : go(b);\nORDER\n    e, f\n",
        encoding="utf-8",
    )
    (tmp_path / "base" / "Ok.crysl").write_text(
        "SPEC org.example.Ok\nOBJECTS\n    int a;\nEVENTS\n    e : go(a);\nORDER\n    e\n",
        encoding="utf-8",
    )
    conf = tmp_path / "fam.conf"
    conf.write_text(
        "config fam {\n  src = .;\n  out = out/;\n  load spec base/;\n}", encoding="utf-8"
    )
    diagnostics = [f"{bad}:6:5: error: parameter 'b' is not a declared object",
                   f"{bad}:8:8: error: unresolved label 'f'"]
    validated = []

    def counting_validate(spec):
        validated.append(spec.name)
        return validate_spec(spec)

    monkeypatch.setattr(preprocessor, "validate_spec", counting_validate)
    code, out, err = run_cli(capsys, "build", str(conf))
    assert code == 1
    assert out == f"{tmp_path / 'out' / 'Ok.crysl'}\n"
    assert err.splitlines() == diagnostics + ["fam: wrote 1 file(s)"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [MANIFEST, "Ok.crysl"]
    assert sorted(validated) == ["Bad", "Ok"]  # each spec validated once

    code, out, err = run_cli(capsys, "build", str(conf), "--dry-run", "--json")
    payload = json.loads(out)
    assert code == 1
    assert payload["files"] == [str(tmp_path / "out" / "Ok.crysl")]
    assert payload["stats"]["specs_emitted"] == 1

    code, out, err = run_cli(capsys, "metrics", "--meta", str(tmp_path / "base"),
                             "--configs", str(conf))
    assert code == 1
    assert out == ""
    assert err.splitlines()[:2] == diagnostics


def test_build_locates_a_constraint_that_a_refinement_added_in_the_refinement_file(
        corpus_copy, capsys, monkeypatch):
    # The refined rule holds nodes of base/messagedigest.mcsl and of the
    # .ref; the added constraint is reported in the file that declares it.
    monkeypatch.chdir(corpus_copy / "standards")
    ref = Path("fips/messagedigest.ref")
    lines = ref.read_text(encoding="utf-8").split("\n")
    lines.insert(5, "    add constraint nope in {1};")
    ref.write_text("\n".join(lines), encoding="utf-8")
    code, out, err = run_cli(capsys, "build", "fips.conf", "--dry-run")
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "fips/messagedigest.ref:6:20: error: constraint references undeclared variable 'nope'",
        "fips/messagedigest.ref:2:1: error: refinement 'MessageDigest' produced an invalid rule",
        "fips: planned 0 file(s)",
    ]


def test_build_stdout_is_reproducible(corpus_copy, capsys):
    conf = corpus_copy / "jca-android" / "bsi0116.conf"
    code1, out1, _ = run_cli(capsys, "build", str(conf), "--json")
    code2, out2, _ = run_cli(capsys, "build", str(conf), "--json")
    assert code1 == code2 == 0
    assert out1 == out2


# A rebuild brings the output directory in line with the build.

DIGESTS = ["SHA256.crysl", "SHA384.crysl", "SHA512.crysl", "SHA512t.crysl"]


def build_digests(capsys, corpus_copy) -> tuple[int, str, Path]:
    """Build the bouncycastle digests; the exit code, stderr and output directory."""
    code, _, err = run_cli(capsys, "build", str(corpus_copy / "bouncycastle" / "digests.conf"))
    return code, err, corpus_copy / "bouncycastle" / "_generated" / "digests"


def listing(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir())


def test_rebuild_deletes_the_rule_of_a_removed_refinement(corpus_copy, capsys):
    code, err, out_dir = build_digests(capsys, corpus_copy)
    assert (code, err) == (0, "bcdigests: wrote 4 file(s)\n")
    refinements = corpus_copy / "bouncycastle" / "refinements" / "digests.ref"
    text = refinements.read_text(encoding="utf-8")
    sha512t = "SPEC SHA512t REFINES\n     Digest<org.bouncycastle.crypto.digests.SHA512tDigest>;\n"
    assert sha512t in text
    refinements.write_text(text.replace(sha512t, ""), encoding="utf-8")

    code, err, out_dir = build_digests(capsys, corpus_copy)
    assert (code, err) == (0, "bcdigests: wrote 3 file(s)\n")
    assert listing(out_dir) == sorted([MANIFEST] + DIGESTS[:3])
    assert json.loads((out_dir / MANIFEST).read_text(encoding="utf-8")) == DIGESTS[:3]
    code, out, err = run_cli(capsys, "validate", str(out_dir))
    assert (code, err) == (0, "3 file(s): 0 error(s), 0 warning(s)\n")


def test_rebuild_keeps_a_file_it_did_not_write(corpus_copy, capsys):
    out_dir = build_digests(capsys, corpus_copy)[2]
    (out_dir / "Notes.crysl").write_text("hand-placed\n", encoding="utf-8")
    (out_dir / "SHA384.crysl").unlink()
    assert build_digests(capsys, corpus_copy)[:2] == (0, "bcdigests: wrote 4 file(s)\n")
    assert listing(out_dir) == sorted([MANIFEST, "Notes.crysl"] + DIGESTS)
    assert (out_dir / "Notes.crysl").read_text(encoding="utf-8") == "hand-placed\n"


@pytest.mark.parametrize("manifest", [
    b"", b"{", b"\xff\xfe[", pytest.param(b"[" * 100_000, id="deeply-nested"), b"{}",
    b'["a", 1]', b"null",
    b'["SHA256.crysl", "../Digest.mcsl"]', b'["Notes.crysl", "a/b"]',
    b'["Notes.crysl", "."]', b'["Notes.crysl", ""]', b'["Notes.crysl", ".."]',
    b'["Notes.crysl", "a\\u0000b"]', b'["Notes.crysl", ".cryslkit-manifest.json"]',
])
def test_rebuild_after_a_corrupt_manifest_warns_and_deletes_nothing_it_did_not_write(
    corpus_copy, capsys, manifest
):
    out_dir = build_digests(capsys, corpus_copy)[2]
    (out_dir / "Notes.crysl").write_text("hand-placed\n", encoding="utf-8")
    (out_dir / "a").mkdir()
    (out_dir / "a" / "b").write_text("hand-placed\n", encoding="utf-8")
    (out_dir / MANIFEST).write_bytes(manifest)
    before = {p.relative_to(corpus_copy.parent).as_posix() for p in corpus_copy.parent.rglob("*")}

    code, err, _ = build_digests(capsys, corpus_copy)
    assert code == 0
    assert err.splitlines() == [
        f"{out_dir / MANIFEST}:1:1: warning: not a JSON list of plain file names; "
        "no earlier output is deleted",
        "bcdigests: wrote 4 file(s)",
    ]
    after = {p.relative_to(corpus_copy.parent).as_posix() for p in corpus_copy.parent.rglob("*")}
    assert after == before
    assert json.loads((out_dir / MANIFEST).read_text(encoding="utf-8")) == DIGESTS
    # The manifest is whole again, so the next build says nothing about it.
    assert build_digests(capsys, corpus_copy)[:2] == (0, "bcdigests: wrote 4 file(s)\n")
    (out_dir / MANIFEST).write_bytes(manifest)
    code, out, _ = run_cli(capsys, "build", str(corpus_copy / "bouncycastle" / "digests.conf"),
                           "--json")
    payload = json.loads(out)
    assert (code, payload["errors"], payload["warnings"]) == (0, 0, 1)


def test_rebuild_deletes_only_files_its_manifest_lists(corpus_copy, capsys):
    out_dir = build_digests(capsys, corpus_copy)[2]
    (out_dir / "Old.crysl").write_text("stale\n", encoding="utf-8")
    (out_dir / "Kept.crysl").write_text("hand-placed\n", encoding="utf-8")
    (out_dir / "Made.crysl").mkdir()  # a directory where a listed file was
    (out_dir / MANIFEST).write_text(json.dumps(["Old.crysl", "Made.crysl", "Gone.crysl"] + DIGESTS),
                                    encoding="utf-8")
    assert build_digests(capsys, corpus_copy)[:2] == (0, "bcdigests: wrote 4 file(s)\n")
    assert listing(out_dir) == sorted([MANIFEST, "Kept.crysl", "Made.crysl"] + DIGESTS)


def test_first_build_into_a_directory_without_a_manifest_says_nothing(corpus_copy, capsys):
    out_dir = corpus_copy / "bouncycastle" / "_generated" / "digests"
    out_dir.mkdir(parents=True)
    (out_dir / "Notes.crysl").write_text("hand-placed\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "build", str(corpus_copy / "bouncycastle" / "digests.conf"),
                             "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["warnings"] == 0
    assert listing(out_dir) == sorted([MANIFEST, "Notes.crysl"] + DIGESTS)


def test_build_with_errors_and_no_rules_changes_nothing_on_disk(tmp_path, capsys):
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "messagedigest.mcsl").write_bytes(
        (STANDARDS / "base" / "messagedigest.mcsl").read_bytes())
    conf = tmp_path / "x.conf"
    conf.write_text("config x {\n  src = nope;\n  out = gen/x;\n  load spec base/;\n}\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "build", str(conf))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"{conf}:1:1: error: missing path: src '{tmp_path / 'nope'}' is not a directory",
        "x: wrote 0 file(s)"]
    assert listing(tmp_path) == ["base", "x.conf"]


def test_unchanged_rebuild_leaves_every_output_file_alone(corpus_copy, capsys):
    out_dir = build_digests(capsys, corpus_copy)[2]
    stats = {name: os.stat(out_dir / name) for name in listing(out_dir)}
    assert build_digests(capsys, corpus_copy)[:2] == (0, "bcdigests: wrote 4 file(s)\n")
    assert listing(out_dir) == sorted(stats)
    for name, before in stats.items():
        after = os.stat(out_dir / name)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns), name


def test_changed_rule_is_replaced_by_a_new_file_and_no_temporary_is_left(corpus_copy, capsys):
    out_dir = build_digests(capsys, corpus_copy)[2]
    inodes = {name: os.stat(out_dir / name).st_ino for name in DIGESTS}
    reader = (out_dir / "SHA256.crysl").open("rb")  # holds the old file open
    old = reader.read()
    refinements = corpus_copy / "bouncycastle" / "refinements" / "digests.ref"
    text = refinements.read_text(encoding="utf-8")
    refinements.write_text(text.replace("SHA256Digest>", "SHA256Digest2>"), encoding="utf-8")

    assert build_digests(capsys, corpus_copy)[:2] == (0, "bcdigests: wrote 4 file(s)\n")
    assert listing(out_dir) == sorted([MANIFEST] + DIGESTS)
    new = (out_dir / "SHA256.crysl").read_bytes()
    assert new == old.replace(b"SHA256Digest", b"SHA256Digest2")
    assert os.stat(out_dir / "SHA256.crysl").st_ino != inodes["SHA256.crysl"]
    assert {name: os.stat(out_dir / name).st_ino for name in DIGESTS[1:]} == {
        name: inodes[name] for name in DIGESTS[1:]
    }
    reader.seek(0)
    assert reader.read() == old  # the old file was replaced, not rewritten
    reader.close()


def test_an_output_that_is_a_symlink_is_replaced_not_written_through(corpus_copy, capsys):
    outside = corpus_copy.parent / "outside.crysl"
    code, err, out_dir = build_digests(capsys, corpus_copy)
    for content in (b"outside\n", (out_dir / "SHA512.crysl").read_bytes()):
        outside.write_bytes(content)
        (out_dir / "SHA512.crysl").unlink()
        (out_dir / "SHA512.crysl").symlink_to(outside)
        assert build_digests(capsys, corpus_copy)[:2] == (0, "bcdigests: wrote 4 file(s)\n")
        assert not (out_dir / "SHA512.crysl").is_symlink()
        assert outside.read_bytes() == content
    assert (out_dir / "SHA512.crysl").read_bytes() == outside.read_bytes()


def test_a_build_with_errors_deletes_nothing_and_keeps_the_earlier_names(corpus_copy, capsys):
    out_dir = build_digests(capsys, corpus_copy)[2]
    before = {name: (out_dir / name).read_bytes() for name in DIGESTS}
    refinements = corpus_copy / "bouncycastle" / "refinements" / "digests.ref"
    base = corpus_copy / "bouncycastle" / "base" / "digest.mcsl"
    good_refinements = refinements.read_text(encoding="utf-8")
    good_base = base.read_text(encoding="utf-8")
    sha512t = "SPEC SHA512t REFINES\n     Digest<org.bouncycastle.crypto.digests.SHA512tDigest>;\n"
    broken = [
        # the SHA512t refinement gone, and a syntax error that drops every refinement
        (good_refinements.replace(sha512t, "") + "garbage {\n", good_base),
        # the SHA512t refinement gone, and one that names a missing base
        (good_refinements.replace(sha512t, "SPEC X REFINES Nothing<a.B>;\n"), good_base),
        # a syntax error in the shared base, so no rule is produced
        (good_refinements, good_base + "SPEC\n"),
    ]
    for refinements_text, base_text in broken:
        refinements.write_text(refinements_text, encoding="utf-8")
        base.write_text(base_text, encoding="utf-8")
        code, err, _ = build_digests(capsys, corpus_copy)
        assert code == 1 and "error:" in err
        assert listing(out_dir) == sorted([MANIFEST] + DIGESTS)
        assert {name: (out_dir / name).read_bytes() for name in DIGESTS} == before
        assert sorted(json.loads((out_dir / MANIFEST).read_text(encoding="utf-8"))) == DIGESTS

    refinements.write_text(good_refinements.replace(sha512t, ""), encoding="utf-8")
    base.write_text(good_base, encoding="utf-8")
    assert build_digests(capsys, corpus_copy)[:2] == (0, "bcdigests: wrote 3 file(s)\n")
    assert listing(out_dir) == sorted([MANIFEST] + DIGESTS[:3])


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_clean_rules(corpus_copy, capsys):
    code, out, err = run_cli(
        capsys, "validate", str(corpus_copy / "bcprov" / "base")
    )
    assert code == 0
    assert "0 error(s)" in err


def test_validate_bad_rule_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.crysl"
    bad.write_text(
        "SPEC X\nOBJECTS\nEVENTS\n    a : go();\nORDER\n    a, nope\n", encoding="utf-8"
    )
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "unresolved label 'nope'" in err


@pytest.mark.parametrize("suffix", [".crysl", ".mcsl"])
def test_validate_locates_an_overlong_integer_literal(tmp_path, capsys, suffix):
    rule = tmp_path / f"Big{suffix}"
    rule.write_text(
        "SPEC org.example.Big\nOBJECTS\n    int n;\nEVENTS\n    e : push(n);\nORDER\n    e\n"
        f"CONSTRAINTS\n    n in {{1, {'7' * 5000}}};\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "validate", str(rule))
    assert code == 1
    assert err.splitlines()[0] == f"{rule}:9:14: error: integer literal of 5000 digits is too long"


def test_validate_locates_the_first_byte_that_is_not_utf8(tmp_path, capsys):
    rule = tmp_path / "Latin1.crysl"
    # CRLF line ends and a two-byte "\u00f1" before the bad byte: the column
    # counts characters after newline translation, as the parsers do.
    rule.write_bytes(b"SPEC X\r\n// \xc3\xb1 caf\xe9 \xe8\r\nOBJECTS\r\n")
    code, out, err = run_cli(capsys, "validate", str(rule))
    assert code == 1
    assert err.splitlines() == [
        f"{rule}:2:9: error: byte 0xe9 is not valid UTF-8",
        "1 file(s): 1 error(s), 0 warning(s)",
    ]


def test_validate_missing_path_exits_2(capsys):
    code, out, err = run_cli(capsys, "validate", "does-not-exist.crysl")
    assert code == 2
    assert err == "does-not-exist.crysl:1:1: error: no such file or directory\n"


@pytest.mark.parametrize("argv", [
    ("check", "--rules", "{}", "--trace", os.devnull),
    ("metrics", "--meta", "{}", "--configs", "x.conf"),
])
def test_a_missing_directory_argument_is_no_such_file_or_directory(tmp_path, capsys, argv):
    missing = tmp_path / "nope"
    code, out, err = run_cli(capsys, *(a.format(missing) for a in argv))
    assert (code, out, err) == (2, "", f"{missing}:1:1: error: no such file or directory\n")


@pytest.mark.parametrize("argv", [
    ("check", "--rules", "{}", "--trace", os.devnull),
    ("metrics", "--meta", "{}", "--configs", "x.conf"),
])
def test_an_existing_file_given_as_a_directory_is_not_a_directory(tmp_path, capsys, argv):
    plain = tmp_path / "a.crysl"
    plain.write_text("", encoding="utf-8")
    code, out, err = run_cli(capsys, *(a.format(plain) for a in argv))
    assert (code, out, err) == (2, "", f"{plain}:1:1: error: not a directory\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_validate_on_a_named_pipe_is_not_a_file_or_directory(tmp_path, capsys):
    pipe = tmp_path / "rules.fifo"
    os.mkfifo(pipe)
    code, out, err = run_cli(capsys, "validate", str(pipe))
    assert (code, out, err) == (2, "", f"{pipe}:1:1: error: not a file or directory\n")


# Each path argument, by what it takes, in a command line that is otherwise
# valid: "{}" is the path under test, "{rules}" a directory of one rule.
PATH_ARGUMENTS = {
    "build CONFIG": ("file", ["build", "{}"]),
    "validate PATHS": ("file or directory", ["validate", "{}"]),
    "check --rules": ("directory", ["check", "--rules", "{}", "--trace", os.devnull]),
    "check --trace": ("file", ["check", "--rules", "{rules}", "--trace", "{}"]),
    "metrics --meta": ("directory", ["metrics", "--meta", "{}", "--configs", "{rules}"]),
    "metrics --configs": ("file", ["metrics", "--meta", "{rules}", "--configs", "{}"]),
    "fsm --rule": ("file", ["fsm", "--rule", "{}"]),
}
# The one wording for each kind of path, symlinks followed, that an argument
# refuses (docs/formats.md, "Standard error"); None where it is accepted.
NOWHERE = dict.fromkeys(("file", "directory", "file or directory"), "no such file or directory")
PATH_REFUSALS = {
    "missing": NOWHERE,
    "dangling symlink": NOWHERE,
    "directory": {"file": "is a directory, expected a file", "directory": None,
                  "file or directory": None},
    "regular file": {"file": None, "directory": "not a directory", "file or directory": None},
    "FIFO": {"file": None, "directory": "not a directory",
             "file or directory": "not a file or directory"},
}


@pytest.mark.parametrize("argument, kind", [
    (argument, kind) for argument in PATH_ARGUMENTS for kind in PATH_REFUSALS
    # An accepted FIFO is read as a trace: test_check_reads_a_trace_from_a_named_pipe.
    if (argument, kind) != ("check --trace", "FIFO")
])
def test_each_path_argument_refuses_each_kind_of_path_in_one_wording(tmp_path, capsys,
                                                                      argument, kind):
    if kind == "FIFO" and not hasattr(os, "mkfifo"):
        pytest.skip("needs named pipes")
    rules = tmp_path / "rules"
    rules.mkdir()
    (rules / "MessageDigest.crysl").write_text(MESSAGEDIGEST_RULE, encoding="utf-8")
    # No reader takes the extension ".x", so a path that the check accepts is
    # refused by its reader before it is opened, in a wording of its own.
    path = tmp_path / "path.x"
    if kind == "dangling symlink":
        path.symlink_to(tmp_path / "nowhere")
    elif kind == "directory":
        path.mkdir()
    elif kind == "regular file":
        path.write_text("", encoding="utf-8")
    elif kind == "FIFO":
        os.mkfifo(path)
    takes, argv = PATH_ARGUMENTS[argument]
    code, out, err = run_cli(capsys, *(a.format(path, rules=rules) for a in argv))
    refusal = PATH_REFUSALS[kind][takes]
    if refusal is not None:
        assert (code, out, err) == (2, "", f"{path}:1:1: error: {refusal}\n")
    else:
        refusals = {wording for wordings in PATH_REFUSALS.values() for wording in wordings.values()}
        assert not {f"{path}:1:1: error: {wording}" for wording in refusals} & set(err.split("\n"))


@pytest.mark.parametrize("argv, code", [
    (["validate", "base", "bsi", "../bouncycastle/base/digest.mcsl"], 0),
    (["check", "--rules", "_generated/fips", "--trace", "../traces/standards/md5_digest.jsonl"], 1),
    (["fsm", "--rule", "_generated/fips/MessageDigest.crysl"], 0),
    (["build", "fips.conf"], 0),
    (["metrics", "--meta", ".", "--configs", "bsi.conf", "fips.conf"], 0),
], ids=["validate", "check", "fsm", "build", "metrics"])
def test_each_named_path_is_stat_ed_once_on_the_success_path(corpus_copy, capsys, monkeypatch,
                                                             argv, code):
    monkeypatch.chdir(corpus_copy / "standards")
    assert main(["build", "fips.conf"]) == 0  # for check and fsm
    stat, run_build, stats = os.stat, metrics.run_build, []

    def counting_stat(path, *args, **kwargs):
        stats.append(os.fspath(path))
        return stat(path, *args, **kwargs)

    def build(*args):
        # The builds after the metrics --meta walk stat each configuration's
        # src root, "." here, as a build does.
        stats.append(None)
        return run_build(*args)

    monkeypatch.setattr(os, "stat", counting_stat)
    monkeypatch.setattr(metrics, "run_build", build)
    assert main(argv) == code
    checked = stats[:stats.index(None)] if None in stats else stats
    named = [str(Path(arg)) for arg in argv[1:] if not arg.startswith("--")]
    assert {path: checked.count(path) for path in named} == dict.fromkeys(named, 1)


@pytest.mark.parametrize("argv", [
    ["build", "fips.conf"],
    ["metrics", "--meta", ".", "--configs", "fips.conf"],
], ids=["build", "metrics"])
def test_json_output_leaves_no_more_cyclic_garbage_than_text(corpus_copy, capsys, monkeypatch,
                                                              argv):
    monkeypatch.chdir(corpus_copy / "standards")
    assert main(argv) == main(argv + ["--json"]) == 0  # the first run of each writes or imports
    text = cyclic_garbage(lambda: main(argv))
    as_json = cyclic_garbage(lambda: main(argv + ["--json"]))
    assert len(as_json) <= len(text)


@pytest.mark.parametrize("stray, written", [
    ("\f", "\\f"), ("\x1c", "\\u001c"), ("\u202e", "\\u202e"), ("\u200b", "\\u200b"),
    ("\ufeff", "\\ufeff"), ("\x85", "\\u0085"), ("\u2028", "\\u2028"), ("\x7f", "\\u007f"),
    ("\x9b", "\\u009b"), ("\U000e0001", "\\U000e0001"),
])
def test_validate_writes_a_stray_control_character_on_one_line(tmp_path, capsys, stray, written):
    rule = tmp_path / "B.crysl"
    rule.write_text(f"SPEC a.B\n{stray} OBJECTS\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "validate", str(rule))
    assert code == 1
    assert err.split("\n") == [f"{rule}:2:1: error: expected 'OBJECTS', found '{written}'",
                                "1 file(s): 1 error(s), 0 warning(s)", ""]


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@pytest.fixture()
def fips_rules_dir(corpus_copy, capsys):
    conf = corpus_copy / "standards" / "fips.conf"
    assert main(["build", str(conf)]) == 0
    capsys.readouterr()
    return corpus_copy / "standards" / "_generated" / "fips"


def test_check_md5_trace_finds_constraint_violation(fips_rules_dir, corpus_copy, capsys):
    trace = corpus_copy / "traces" / "standards" / "md5_digest.jsonl"
    code, out, err = run_cli(
        capsys, "check", "--rules", str(fips_rules_dir), "--trace", str(trace),
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["total"] == 1
    assert payload["by_kind"]["constraint"] == 1


def test_check_clean_trace_exits_0(fips_rules_dir, corpus_copy, capsys):
    trace = corpus_copy / "traces" / "standards" / "sha256_digest.jsonl"
    code, out, err = run_cli(
        capsys, "check", "--rules", str(fips_rules_dir), "--trace", str(trace),
    )
    assert code == 0
    assert "total: 0" in out


def test_check_table_format_is_default(fips_rules_dir, corpus_copy, capsys):
    trace = corpus_copy / "traces" / "standards" / "md5_digest.jsonl"
    code, out, err = run_cli(
        capsys, "check", "--rules", str(fips_rules_dir), "--trace", str(trace),
    )
    assert code == 1
    assert out.splitlines()[0].startswith("KIND")


def test_check_skips_a_byte_order_mark_that_starts_a_trace(fips_rules_dir, corpus_copy, capsys):
    source = corpus_copy / "traces" / "standards" / "md5_digest.jsonl"
    expected = run_cli(capsys, "check", "--rules", str(fips_rules_dir), "--trace", str(source),
                       "--format", "json")
    assert expected[0] == 1 and json.loads(expected[1])["by_kind"]["constraint"] == 1
    source.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    assert run_cli(capsys, "check", "--rules", str(fips_rules_dir), "--trace", str(source),
                   "--format", "json") == expected


def test_check_reports_a_trace_line_that_is_not_utf8_and_goes_on(
    fips_rules_dir, corpus_copy, capsys
):
    source = corpus_copy / "traces" / "standards" / "md5_digest.jsonl"
    _, expected, _ = run_cli(capsys, "check", "--rules", str(fips_rules_dir),
                             "--trace", str(source), "--format", "json")
    # A line between the first and the second event, with a Latin-1 "é".
    first, *rest = source.read_bytes().splitlines(keepends=True)
    latin1 = b'{"seq": 1, "object_id": "md1", "class_name": "C", "method_name": "caf\xe9"}\n'
    trace = corpus_copy / "latin1.jsonl"
    trace.write_bytes(b"".join([first, latin1, *rest]))
    code, out, err = run_cli(
        capsys, "check", "--rules", str(fips_rules_dir), "--trace", str(trace),
        "--format", "json",
    )
    assert code == 1
    assert err == f"{trace}:2:1: error: malformed trace line: byte 0xe9 is not valid UTF-8\n"
    assert out == expected


def test_check_ends_trace_lines_only_at_line_breaks(fips_rules_dir, tmp_path, capsys):
    # U+2028 is valid inside a JSON string and json.dumps(..., ensure_ascii=False)
    # writes it raw; str.splitlines would break the first line at it.
    lines = [
        json.dumps({"seq": 1, "object_id": "l1", "class_name": "java.util.List",
                    "method_name": "add", "args": ["a\u2028b\x85c"]}, ensure_ascii=False),
        "not json",
        json.dumps({"seq": 2, "object_id": "md1", "class_name": "java.security.MessageDigest",
                    "method_name": "getInstance", "args": ["MD5"], "return_id": "md1"}),
    ]
    trace = tmp_path / "separators.jsonl"
    trace.write_bytes(("\r\n".join(lines) + "\r").encode("utf-8"))
    code, out, err = run_cli(capsys, "check", "--rules", str(fips_rules_dir),
                             "--trace", str(trace), "--format", "json")
    assert code == 1
    assert err == (f"{trace}:2:1: error: malformed trace line: "
                   "Expecting value: line 1 column 1 (char 0)\n")
    assert json.loads(out)["by_kind"] == {"constraint": 1, "incomplete": 1,
                                          "missing-predicate": 0, "order": 0}


def test_check_table_keeps_a_value_with_a_line_break_on_its_row(fips_rules_dir, tmp_path, capsys):
    trace = tmp_path / "newline.jsonl"
    trace.write_text(json.dumps({"seq": 1, "object_id": "md1",
                                 "class_name": "java.security.MessageDigest",
                                 "method_name": "getInstance", "args": ["MD\n5\t\"x\\"],
                                 "return_id": "md1"}) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "check", "--rules", str(fips_rules_dir),
                             "--trace", str(trace), "--format", "table")
    assert code == 1
    header, constraint, incomplete, total = out.splitlines()
    assert constraint.startswith("constraint  md1")
    assert 'algorithm = "MD\\n5\\t\\"x\\\\" violates' in constraint
    assert incomplete.startswith("incomplete  md1") and total == "total: 2"


def test_check_table_escapes_what_utf8_cannot_encode(fips_rules_dir, tmp_path, capsys):
    # The JSON escape "\ud800" is a lone surrogate once decoded, which the
    # table used to hand to stdout's UTF-8 encoder as it was.
    trace = tmp_path / "surrogate.jsonl"
    trace.write_text(json.dumps({"seq": 1, "object_id": "md\udce9",
                                 "class_name": "java.security.MessageDigest",
                                 "method_name": "getInstance", "args": ["\ud800"],
                                 "return_id": "md1"}) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "check", "--rules", str(fips_rules_dir),
                             "--trace", str(trace), "--format", "table")
    assert code == 1
    header, constraint, incomplete, total = out.splitlines()
    assert constraint.startswith("constraint  md\\udce9  1")
    assert constraint.endswith('  algorithm = "\\ud800" violates \'algorithm in {"SHA-224", '
                               '"SHA-256", "SHA-384", "SHA-512", "SHA-512/224", "SHA-512/256", '
                               '"SHA3-256", "SHA3-384", "SHA3-512", "SHAKE128", "SHAKE256"}\'')
    assert incomplete.startswith("incomplete  md\\udce9  end") and total == "total: 2"


def test_check_drops_the_trace_before_the_report(fips_rules_dir, corpus_copy, capsys, monkeypatch):
    # The report's memory would otherwise land on top of every event.
    def live_events() -> int:
        gc.collect()
        return sum(type(o) is TraceEvent for o in gc.get_objects())

    report, during_report = tracecheck.report, []

    def watched_report(violations, fmt):
        during_report.append(live_events())
        return report(violations, fmt)

    monkeypatch.setattr(tracecheck, "report", watched_report)
    before = live_events()
    trace = corpus_copy / "traces" / "standards" / "md5_digest.jsonl"
    code, out, err = run_cli(capsys, "check", "--rules", str(fips_rules_dir),
                             "--trace", str(trace), "--format", "json")
    assert code == 1 and json.loads(out)["total"] == 1
    assert during_report == [before]


def test_check_writes_a_warning_on_a_control_character_literal_on_one_line(tmp_path, capsys):
    (tmp_path / "rules").mkdir()
    rule = tmp_path / "rules" / "Tag.crysl"
    rule.write_text("SPEC org.example.Tag\nOBJECTS\n    java.lang.String value;\nEVENTS\n"
                    "    e : set(value);\nORDER\n    e\nCONSTRAINTS\n"
                    '    value in {"a\x1cb"};\n', encoding="utf-8")
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"seq": 1, "object_id": "t1", "class_name": "org.example.Tag", '
                     '"method_name": "set", "args": ["?"]}\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "check", "--rules", str(tmp_path / "rules"),
                             "--trace", str(trace), "--format", "json")
    assert (code, json.loads(out)["total"]) == (0, 0)
    assert err.split("\n") == [f"{rule}:9:5: warning: seq 1: t1: cannot decide "
                                "'value in {\"a\\u001cb\"}' (unknown value)", ""]


def test_check_trace_that_is_a_directory_exits_2(fips_rules_dir, tmp_path, capsys):
    code, out, err = run_cli(capsys, "check", "--rules", str(fips_rules_dir),
                             "--trace", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"{tmp_path}:1:1: error: is a directory, expected a file\n"


def test_check_rules_directory_without_crysl_rules_exits_2(tmp_path, capsys):
    rules = tmp_path / "rules"
    rules.mkdir()
    (rules / "a.mcsl").write_text("SPEC a.B\nEVENTS\n    e : f();\nORDER\n    e\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "check", "--rules", str(rules), "--trace", os.devnull)
    assert (code, out, err) == (2, "", f"{rules}:1:1: error: no .crysl rules found\n")


def test_check_trace_that_is_missing_exits_2(fips_rules_dir, tmp_path, capsys):
    missing = tmp_path / "absent.jsonl"
    code, out, err = run_cli(capsys, "check", "--rules", str(fips_rules_dir),
                             "--trace", str(missing))
    assert (code, out, err) == (2, "", f"{missing}:1:1: error: no such file or directory\n")


def test_check_reads_dev_null_as_a_trace_without_events(fips_rules_dir, capsys):
    code, out, err = run_cli(capsys, "check", "--rules", str(fips_rules_dir),
                             "--trace", os.devnull, "--format", "json")
    assert (code, out, err) == (0, tracecheck.report([], "json"), "")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_check_reads_a_trace_from_a_named_pipe(fips_rules_dir, corpus_copy, tmp_path, capsys):
    trace = corpus_copy / "traces" / "standards" / "md5_digest.jsonl"
    argv = ["check", "--rules", str(fips_rules_dir), "--format", "json", "--trace"]
    expected = run_cli(capsys, *argv, str(trace))
    pipe = tmp_path / "trace.fifo"
    os.mkfifo(pipe)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(pipe, "wb") as sink:
            sink.write(trace.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    got = run_cli(capsys, *argv, str(pipe))
    if writer.is_alive():  # the pipe may never have been opened: release the writer
        os.close(os.open(pipe, os.O_RDONLY | os.O_NONBLOCK))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert expected[0] == 1
    assert got == expected


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_json_output(corpus_copy, capsys):
    root = corpus_copy / "jca-android"
    configs = [str(root / f"{n}.conf") for n in (
        "base0108", "base0116", "base25plus",
        "bsi0108", "bsi0116", "bsi25plus",
        "cognicrypt0108", "cognicrypt0116", "cognicrypt25plus",
    )]
    code, out, err = run_cli(
        capsys, "metrics", "--meta", str(root), "--configs", *configs, "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["breakeven"] == 2
    assert payload["savings_ratio"] > 0.5
    assert payload["meta"]["total_lines"] < payload["generated"]["total_lines"]
    code, out, _ = run_cli(capsys, "metrics", "--meta", str(root), "--configs", *configs)
    assert code == 0 and out.endswith("\nbreakeven: configuration 2\n")


def _rglob_meta_sources(root: Path) -> list[str]:
    """The --meta walk as pathlib's rglob makes it, the reference."""
    return [str(p) for p in sorted(
        p for p in root.rglob("*")
        if p.is_file() and p.suffix in parsing.LANGUAGE_BY_EXTENSION
        and not any(part.startswith("_") for part in p.relative_to(root).parts)
    )]


@pytest.mark.parametrize("root", ["tree", "."])
def test_the_meta_walk_finds_what_rglob_finds_in_its_order(tmp_path, monkeypatch, root):
    tree = tmp_path / "tree"
    for name in ("a/b.crysl", "a-c.crysl", "a/d/e.mcsl", "a/.hidden.ref", "z.conf", "x.txt",
                 "_x.crysl", "_out/f.crysl", "a/_g/h.crysl", "outside/i.crysl", "a b/j.ref"):
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_text("", encoding="utf-8")
    (tree / "linked.crysl").symlink_to(tree / "a" / "b.crysl")  # a symlinked file counts
    (tree / "linked").symlink_to(tree / "outside", target_is_directory=True)  # not entered
    (tree / "dangling.crysl").symlink_to(tree / "missing.crysl")
    (tree / "loop.crysl").symlink_to(tree / "loop.crysl")
    os.mkfifo(tree / "pipe.crysl")
    monkeypatch.chdir(tree if root == "." else tmp_path)
    expected = [("" if root == "." else "tree/") + path for path in (
        "a/.hidden.ref", "a/b.crysl", "a/d/e.mcsl", "a b/j.ref", "a-c.crysl",  # by parts, not text
        "linked.crysl", "outside/i.crysl", "z.conf",
    )]
    assert _rglob_meta_sources(Path(root)) == expected
    assert cli._meta_sources(root) == expected


def test_metrics_csv_curve(corpus_copy, capsys, tmp_path):
    root = corpus_copy / "jca-android"
    csv_path = tmp_path / "curve.csv"
    code, out, err = run_cli(
        capsys, "metrics", "--meta", str(root),
        "--configs", str(root / "base0108.conf"), str(root / "base0116.conf"),
        "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "configuration,cumulative_generated_lines"
    assert lines[1].startswith("base0108,")
    assert len(lines) == 3


def test_metrics_writes_its_csv_path_on_one_line(corpus_copy, capsys, monkeypatch):
    monkeypatch.chdir(corpus_copy / "standards")
    code, _, err = run_cli(capsys, "metrics", "--meta", ".", "--configs", "fips.conf",
                           "--csv", "a\nb.csv")
    assert code == 0
    assert Path("a\nb.csv").is_file()
    assert err == "wrote a\\nb.csv\n"
    assert stray_stderr_lines(err) == []


@pytest.mark.parametrize("argv, spelling", [
    (("metrics", "--meta", "standards", "--configs", "{}"), "./standards/fips.conf"),
    (("build", "{}"), "./standards//fips.conf"),
    (("build", "{}", "--dry-run", "--json"), "standards/./fips.conf"),
])
def test_a_path_spelled_another_way_prints_the_same_bytes(corpus_copy, capsys, monkeypatch,
                                                          argv, spelling):
    monkeypatch.chdir(corpus_copy)
    plain = run_cli(capsys, *(arg.format("standards/fips.conf") for arg in argv))
    assert plain[0] == 0 and plain[1]
    assert run_cli(capsys, *(arg.format(spelling) for arg in argv)) == plain


def test_validate_of_a_directory_spelled_another_way_prints_the_same_bytes(tmp_path, capsys,
                                                                          monkeypatch):
    (tmp_path / "rules" / "sub").mkdir(parents=True)
    (tmp_path / "rules" / "sub" / "Bad.crysl").write_text("SPEC X\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    plain = run_cli(capsys, "validate", "rules")
    assert plain == (1, "", "rules/sub/Bad.crysl:2:1: error: expected 'OBJECTS', found end of file\n"
                            "1 file(s): 1 error(s), 0 warning(s)\n")
    assert run_cli(capsys, "validate", "./rules//") == plain


def test_metrics_reports_a_meta_file_that_is_not_utf8_and_goes_on(corpus_copy, capsys):
    root = corpus_copy / "jca-android"
    conf = str(root / "base0108.conf")
    _, expected, _ = run_cli(capsys, "metrics", "--meta", str(root), "--configs", conf, "--json")
    latin1 = root / "notes.mcsl"
    latin1.write_bytes(b"// caf\xe9\n")
    code, out, err = run_cli(capsys, "metrics", "--meta", str(root), "--configs", conf, "--json")
    assert code == 1
    assert out == expected
    assert err == f"{latin1}:1:7: error: byte 0xe9 is not valid UTF-8\n"


def test_metrics_names_an_unreadable_meta_file_and_exits_1(corpus_copy, capsys, monkeypatch):
    root = corpus_copy / "jca-android"
    conf = str(root / "base0108.conf")
    _, expected, _ = run_cli(capsys, "metrics", "--meta", str(root), "--configs", conf)
    locked = root / "locked.ref"
    locked.write_text("// hand-written\n", encoding="utf-8")
    from_path = SourceFile.from_path.__func__

    def refuse_locked(cls, path):
        if Path(path) == locked:
            raise PermissionError(13, "Permission denied", str(path))
        return from_path(cls, path)

    monkeypatch.setattr(SourceFile, "from_path", classmethod(refuse_locked))
    code, out, err = run_cli(capsys, "metrics", "--meta", str(root), "--configs", conf)
    assert code == 1
    assert out == expected
    assert err == f"{locked}:1:1: error: Permission denied\n"


@pytest.mark.parametrize("meta", [".", "{}"])
def test_metrics_reports_a_loaded_file_that_is_not_utf8_once(corpus_copy, capsys, monkeypatch,
                                                             meta):
    # Both the line count and the build that loads the file read it, the
    # count by the --meta spelling of its path; the build fails, so no
    # report is printed.
    meta = meta.format(corpus_copy / "standards")
    monkeypatch.chdir(corpus_copy / "standards")
    with open("base/messagedigest.mcsl", "ab") as rule:
        rule.write(b"\xe9")
    code, out, err = run_cli(capsys, "metrics", "--meta", meta,
                             "--configs", "bsi.conf", "ecrypt.conf", "fips.conf")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"{Path(meta, 'base', 'messagedigest.mcsl')}:22:1: error: byte 0xe9 is not valid UTF-8",
        "bsi/messagedigest.ref:2:1: error: base spec not found: 'java.security.MessageDigest'",
        "bsi.conf:1:1: error: configuration 'bsi' failed to build",
    ]


def test_metrics_stops_at_a_loaded_file_it_cannot_read_with_exit_2(corpus_copy, capsys,
                                                                    monkeypatch):
    monkeypatch.chdir(corpus_copy / "standards")
    read_source = parsing.read_source

    def refuse_base(path):
        if path == "base/messagedigest.mcsl":
            raise PermissionError(13, "Permission denied", path)
        return read_source(path)

    monkeypatch.setattr(parsing, "read_source", refuse_base)
    code, out, err = run_cli(capsys, "metrics", "--meta", ".", "--configs", "fips.conf")
    assert (code, out, err) == (2, "", "base/messagedigest.mcsl:1:1: error: Permission denied\n")


@pytest.mark.parametrize("path, old, new", [
    ("base/messagedigest.mcsl", "ENSURES\n",
     "// note\u2028this tail is part of the comment\nENSURES\n"),
    ("fips/messagedigest.ref", '"SHAKE256"', '"SHAKE\u2028256"'),
])
def test_metrics_counts_a_line_separator_as_part_of_its_line(corpus_copy, capsys, monkeypatch,
                                                            path, old, new):
    # The parsers end a line only at \n, so U+2028 in a comment or a string
    # literal splits no line, in the rules nor in the rule built from them;
    # the build that reads each file succeeds.
    monkeypatch.chdir(corpus_copy / "standards")
    argv = ("metrics", "--meta", ".", "--configs", "fips.conf", "--json")
    _, expected, _ = run_cli(capsys, *argv)
    source = Path(path)
    text = source.read_text(encoding="utf-8")
    source.write_text(text.replace(old, new, 1), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    before, after = json.loads(expected), json.loads(out)
    for part in ("meta", "generated"):
        assert after[part]["total_lines"] == before[part]["total_lines"], part
    assert after["savings_ratio"] == before["savings_ratio"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_metrics_with_nothing_generated_reports_null_savings(tmp_path, capsys):
    (tmp_path / "base").mkdir()
    conf = tmp_path / "x.conf"
    conf.write_text("config x {\n  src = .;\n  out = _gen/x;\n  load spec base/;\n}\n",
                    encoding="utf-8")
    argv = ("metrics", "--meta", str(tmp_path), "--configs", str(conf))
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out, parse_constant=_reject_constant)
    assert payload["savings_ratio"] is None
    assert payload["generated"]["total_lines"] == 0
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith("\nsavings:   none (nothing generated)\nbreakeven: none yet\n")


def test_metrics_prints_each_build_error_once(tmp_path, capsys):
    (tmp_path / "base").mkdir()
    (tmp_path / "base" / "messagedigest.mcsl").write_bytes(
        (STANDARDS / "base" / "messagedigest.mcsl").read_bytes()
    )
    conf = tmp_path / "y.conf"
    conf.write_text("config y {\n  src = .;\n  out = _gen/y;\n  load spec base/;\n"
                    "  load refinement nope/;\n}\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "metrics", "--meta", str(tmp_path), "--configs", str(conf))
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"{conf}:5:3: error: missing path: '{tmp_path / 'nope'}'",
        f"{tmp_path / 'base' / 'messagedigest.mcsl'}:3:1: error: unbound $AlgSet in "
        "'MessageDigest' (no covering refinement)",
        f"{conf}:1:1: error: configuration 'y' failed to build",
    ]


# ---------------------------------------------------------------------------
# fsm
# ---------------------------------------------------------------------------


def test_fsm_dot_output(fips_rules_dir, capsys):
    rule = fips_rules_dir / "MessageDigest.crysl"
    code, out, err = run_cli(capsys, "fsm", "--rule", str(rule), "--dot")
    assert code == 0
    assert out.startswith("digraph typestate {")
    code2, out2, _ = run_cli(capsys, "fsm", "--rule", str(rule), "--dot")
    assert out2 == out


def test_fsm_summary_without_dot(fips_rules_dir, capsys):
    rule = fips_rules_dir / "MessageDigest.crysl"
    code, out, err = run_cli(capsys, "fsm", "--rule", str(rule))
    assert code == 0
    assert "states:" in out


def test_fsm_stops_at_the_state_limit(tmp_path, capsys):
    rule = tmp_path / "Wide13.crysl"  # 16,385 DFA states
    rule.write_text(wide_rule_text(13), encoding="utf-8")
    code, out, err = run_cli(capsys, "fsm", "--rule", str(rule))
    assert code == 1
    assert out == ""
    assert err.startswith(f"{rule}:7:1: error: ORDER of org.example.Wide13: ")
    assert "more than 10000 states" in err
    assert "Traceback" not in err


def test_fsm_dot_of_a_wide_rule_keeps_its_bytes(tmp_path, capsys):
    rule = tmp_path / "Wide12.crysl"  # 8,193 DFA states
    rule.write_text(
        "SPEC org.example.Wide12\nOBJECTS\n    int n;\nEVENTS\n    e : push(n);\n"
        "    f : skip();\nORDER\n    (e | f)*, e" + ", (e | f)" * 12 + "\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "fsm", "--rule", str(rule), "--dot")
    assert (code, err) == (0, "")
    assert out.count("shape=doublecircle") == 2 ** 12
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "0daa9ab608f947a69a5af58605d6ff319470585d5b5b10ef396ca4482a2561d9"
    )


def test_fsm_reports_deep_order_nesting(tmp_path, capsys):
    rule = tmp_path / "Deep.crysl"
    rule.write_text(
        "SPEC org.example.Deep\nOBJECTS\n    int n;\nEVENTS\n    e : push(n);\nORDER\n"
        f"    {'(' * 400}e{')' * 400}\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "fsm", "--rule", str(rule))
    assert code == 1
    assert out == ""
    # The 101st parenthesis, after four spaces of indentation.
    assert err == f"{rule}:7:105: error: ORDER nests parentheses deeper than 100 levels\n"


def test_fsm_refuses_a_rule_that_fails_validation(tmp_path, capsys, monkeypatch):
    (tmp_path / "bad.crysl").write_text(
        "SPEC X\nOBJECTS\n    int a;\nEVENTS\n    e : go(a);\n    e : stop();\nORDER\n    e\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "fsm", "--rule", "bad.crysl")
    assert (code, out, err) == (1, "", "bad.crysl:6:5: error: duplicate label 'e'\n")


def test_fsm_rule_that_is_a_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "fsm", "--rule", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"{tmp_path}:1:1: error: is a directory, expected a file\n"


def test_fsm_rule_that_is_a_device_is_read_and_refused_by_extension(capsys):
    code, out, err = run_cli(capsys, "fsm", "--rule", os.devnull)
    assert (code, out, err) == (2, "", f"{os.devnull}:1:1: error: unknown rule-file extension ''\n")


@pytest.mark.parametrize("suffix, problem", [
    (".mcsl", "expected a .crysl source, got abstract"),
    (".txt", "unknown rule-file extension '.txt'"),
])
def test_fsm_takes_only_crysl_rules(tmp_path, capsys, suffix, problem):
    rule = tmp_path / f"X{suffix}"
    rule.write_text("SPEC X\nOBJECTS\n    int a;\nEVENTS\n    e : go(a);\nORDER\n    e\n",
                    encoding="utf-8")
    code, out, err = run_cli(capsys, "fsm", "--rule", str(rule))
    assert (code, out, err) == (2, "", f"{rule}:1:1: error: {problem}\n")


@pytest.mark.parametrize("command", ["validate", "fsm"])
def test_long_postfix_chain_is_a_located_parse_error(tmp_path, capsys, command):
    rule = tmp_path / "Chain.crysl"
    rule.write_text(
        "SPEC org.example.Chain\nOBJECTS\n    int n;\nEVENTS\n    e : push(n);\nORDER\n"
        f"    e{'*' * 2000}\n",
        encoding="utf-8",
    )
    argv = ["fsm", "--rule", str(rule)] if command == "fsm" else ["validate", str(rule)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    # The 101st operator, after four spaces of indentation and the atom.
    assert err.splitlines()[0] == (f"{rule}:7:106: error: ORDER nests ?, * and + operators "
                                   "and parentheses deeper than 100 levels")


# ---------------------------------------------------------------------------
# usage errors and the installed entry point
# ---------------------------------------------------------------------------


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_system_error_that_names_no_file_is_reported_at_a_placeholder(fips_rules_dir, capsys):
    with contextlib.redirect_stdout(_ClosedPipe()):
        code = main(["fsm", "--rule", str(fips_rules_dir / "MessageDigest.crysl")])
    assert (code, capsys.readouterr().err) == (2, "<cryslkit>:1:1: error: Broken pipe\n")


def test_unknown_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "build", "x.conf", "--frobnicate")
    assert code == 2
    assert "usage" in err.lower()


def test_missing_subcommand_exits_2(capsys):
    code, out, err = run_cli(capsys)
    assert code == 2


def test_module_entry_point_matches_in_process(corpus_copy):
    conf = corpus_copy / "bouncycastle" / "digests.conf"
    proc = subprocess.run(
        [sys.executable, "-m", "cryslkit", "build", str(conf), "--dry-run", "--json"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["stats"]["specs_emitted"] == 4


def test_cli_imports_no_dataclasses():
    # Records share one base; a dataclass anywhere on the import path of
    # the command line would pay dataclass code generation at every start.
    # The runtime is stdlib-only: -S keeps site's .pth imports out of the count.
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, cryslkit.cli; print('dataclasses' in sys.modules); "
         "print(sorted({name.partition('.')[0] for name in sys.modules}"
         " - set(sys.stdlib_module_names)))"],
        capture_output=True, text=True, cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "False\n['__main__', 'cryslkit']\n", ""
    )


# ---------------------------------------------------------------------------
# fuzzing: any files, any subcommand, an exit code and no traceback
# ---------------------------------------------------------------------------

STANDARDS = REPO_ROOT / "corpus" / "standards"


def _fuzz_seeds() -> dict[str, bytes]:
    """The fips family of the standards corpus, its emitted rule and a trace,
    keyed by their place in the fuzzed tree."""
    from cryslkit import pretty_print, run_build

    seeds = {
        name: (STANDARDS / name).read_bytes()
        for name in ("fips.conf", "base/messagedigest.mcsl", "fips/messagedigest.ref")
    }
    [(_, rule)] = run_build(parse_config(SourceFile.from_path(STANDARDS / "fips.conf"))).generated
    seeds["rules/MessageDigest.crysl"] = pretty_print(rule).encode()
    seeds["trace.jsonl"] = (REPO_ROOT / "corpus" / "traces" / "standards"
                            / "md5_digest.jsonl").read_bytes()
    return seeds


FUZZ_SEEDS = _fuzz_seeds()


def _stderr_forms() -> list[re.Pattern]:
    """The line forms of docs/formats.md's "Standard error" section, one
    regular expression per line of its code block."""
    text = (REPO_ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    section = text.split("\n## Standard error\n")[1].split("\n## ")[0]
    [block] = re.findall(r"```text\n(.*?)```", section, re.S)
    return [re.compile(line) for line in block.splitlines()]


STDERR_FORMS = _stderr_forms()


def stray_stderr_lines(err: str) -> list[str]:
    """The lines of ``err`` that hold a character ``str.isprintable`` rejects,
    or that match no documented stderr form, or more than one."""
    assert err == "" or err.endswith("\n")
    return [line for line in err.split("\n")[:-1]
            if not line.isprintable()
            or sum(form.fullmatch(line) is not None for form in STDERR_FORMS) != 1]


def test_each_documented_stderr_form_takes_its_own_lines():
    lines = ["x.crysl:2:1: error: expected 'OBJECTS', found '\\f'", "fips: wrote 1 file(s)",
             "3 file(s): 1 error(s), 0 warning(s)", "wrote out/curve.csv"]
    assert [[i for i, form in enumerate(STDERR_FORMS) if form.fullmatch(line)]
            for line in lines] == [[0], [1], [2], [3]]
FUZZ_COMMANDS = (
    ("build", "{root}/fips.conf"),
    ("build", "{root}/fips.conf", "--dry-run", "--json"),
    ("validate", "{root}"),
    ("check", "--rules", "{root}/rules", "--trace", "{root}/trace.jsonl", "--format", "json"),
    ("metrics", "--meta", "{root}", "--configs", "{root}/fips.conf", "--json"),
    ("fsm", "--rule", "{root}/rules/MessageDigest.crysl", "--dot"),
)
# Characters that str.isprintable() rejects and a terminal or str.splitlines
# may act on: a bidi override, zero-width and format characters, NEL, the line
# separator, DEL and the C1 control sequence introducer.
INVISIBLE_CHARACTERS = ("\u202e", "\u200b", "\ufeff", "\x85", "\u2028", "\x7f", "\x9b")
FUZZ_TOKENS = [
    b"", b"$", b"<T>", b"{", b"}", b"(", b")", b"*", b"|", b";", b",", b"=>", b"_", b"\n",
    b'"', b"\xff", b"\xc3", b"9" * 4400, b"SPEC", b"ORDER", b"REFINES", b"define", b"load",
    b"{\"seq\": 0}", b"[", b"]", b"null", b"-1", b"1e999", b"\x00",
    *map(str.encode, INVISIBLE_CHARACTERS),
]
_mutations = st.lists(
    st.tuples(st.sampled_from(sorted(FUZZ_SEEDS)), st.integers(0, 10 ** 6), st.integers(0, 12),
              st.sampled_from(FUZZ_TOKENS) | st.binary(max_size=4)),
    min_size=1, max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(_mutations)
def test_cli_main_answers_any_mutated_corpus_with_an_exit_code(mutations):
    files = dict(FUZZ_SEEDS)
    for name, at, cut, insert in mutations:
        data = files[name]
        at %= len(data) + 1
        files[name] = data[:at] + insert + data[at + cut:]
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
        commands = FUZZ_COMMANDS
        try:
            config = parse_config(SourceFile.from_path(root / "fips.conf"))
        except (ParseError, ValueError):
            pass
        else:
            # Keep the reads and writes of a build inside the tree.
            paths = [config.src, config.out] + [load.path for load in config.loads]
            if any(Path(path).is_absolute() for path in paths):
                commands = [c for c in commands if "{root}/fips.conf" not in c]
        for command in commands:
            argv = [arg.format(root=root) for arg in command]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert stray_stderr_lines(err.getvalue()) == [], argv


FUZZ_PATHS = ("fips.conf", "base/messagedigest.mcsl", "fips/messagedigest.ref",
              "rules/MessageDigest.crysl", "trace.jsonl", ".", "rules", "missing",
              "missing/x.conf")
FUZZ_CSV_PATHS = ("curve.csv", "rules", "missing/curve.csv")


@st.composite
def _argv_shapes(draw) -> list[str]:
    """One subcommand whose every path slot holds, half the time, what the
    slot expects, and otherwise a file of any language, a directory or a
    missing path (relative to the tree)."""
    def path(expected: str, choices=FUZZ_PATHS) -> str:
        return "{root}/" + draw(st.just(expected) | st.sampled_from(choices))

    def flag(name: str) -> list[str]:
        return [name] if draw(st.booleans()) else []

    def some_paths(expected: str) -> list[str]:
        return [path(expected) for _ in range(draw(st.integers(1, 3)))]

    command = draw(st.sampled_from(("build", "validate", "check", "metrics", "fsm")))
    if command == "build":
        return ["build", path("fips.conf"), *flag("--dry-run"), *flag("--json")]
    if command == "validate":
        return ["validate", *some_paths(".")]
    if command == "check":
        return ["check", "--rules", path("rules"), "--trace", path("trace.jsonl"),
                "--format", draw(st.sampled_from(("json", "table")))]
    if command == "metrics":
        csv = ["--csv", path("curve.csv", FUZZ_CSV_PATHS)] if draw(st.booleans()) else []
        return ["metrics", "--meta", path("."), "--configs", *some_paths("fips.conf"),
                *flag("--json"), *csv]
    return ["fsm", "--rule", path("rules/MessageDigest.crysl"), *flag("--dot")]


@settings(max_examples=150, deadline=None)
@given(st.lists(_argv_shapes(), min_size=1, max_size=4))
def test_cli_main_answers_any_argv_shape_with_an_exit_code(commands):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in FUZZ_SEEDS.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_bytes(data)
        for command in commands:
            argv = [arg.format(root=root) for arg in command]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert stray_stderr_lines(err.getvalue()) == [], argv


_any_text = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["\ud800", "\udce9", "\n", "\x00", "é", "", *INVISIBLE_CHARACTERS])
_check_records = st.fixed_dictionaries({
    "object_id": st.sampled_from(["md1"]) | _any_text,
    "class_name": st.sampled_from(["java.security.MessageDigest"]) | _any_text,
    "method_name": st.sampled_from(["getInstance", "update", "digest"]) | _any_text,
    "args": st.lists(_any_text | st.integers() | st.builds(lambda ref: {"ref": ref}, _any_text),
                     max_size=2),
})


@settings(max_examples=60, deadline=None)
@given(st.lists(_check_records, min_size=1, max_size=4))
@example([{"object_id": "md\n1", "class_name": "java.security.MessageDigest",
           "method_name": "getInstance", "args": ["?"]},
          {"object_id": "md\n1", "class_name": "java.security.MessageDigest",
           "method_name": "a\rb", "args": []}])
@example([{"object_id": "md\u2028\u202e1", "class_name": "java.security.MessageDigest",
           "method_name": "getInstance", "args": ["\x85"]}])
def test_cli_check_prints_every_trace_in_both_formats(records):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "rules").mkdir()
        (root / "rules" / "MessageDigest.crysl").write_bytes(FUZZ_SEEDS["rules/MessageDigest.crysl"])
        (root / "trace.jsonl").write_text(
            "".join(json.dumps(dict(record, seq=seq)) + "\n" for seq, record in enumerate(records)),
            encoding="utf-8")
        events, diags = load_trace(root / "trace.jsonl")
        rule = parse_crysl(SourceFile.for_text(FUZZ_SEEDS["rules/MessageDigest.crysl"].decode(),
                                               "crysl"))
        result = check_trace(compile_rules([rule]), events)
        for fmt in ("json", "table"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["check", "--rules", str(root / "rules"),
                             "--trace", str(root / "trace.jsonl"), "--format", fmt])
            assert code in (0, 1), fmt
            out.getvalue().encode("utf-8")
            # Each diagnostic and each warning is one line of stderr.
            assert err.getvalue().count("\n") == len(diags) + len(result.warnings), fmt
            assert stray_stderr_lines(err.getvalue()) == [], fmt
            if fmt == "table":  # a header, one row per finding and the total
                rows = out.getvalue().split("\n")
                assert len(rows) == len(result.violations) + 3 and rows.pop() == ""
                assert all(row.isprintable() for row in rows), rows
