from __future__ import annotations

import json
import subprocess
import sys

import pytest

from cryslkit.cli import main

from conftest import REPO_ROOT, wide_rule_text


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
    assert names == ["SHA256.crysl", "SHA384.crysl", "SHA512.crysl", "SHA512t.crysl"]
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
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["Y.crysl"]


def test_build_stdout_is_reproducible(corpus_copy, capsys):
    conf = corpus_copy / "jca-android" / "bsi0116.conf"
    code1, out1, _ = run_cli(capsys, "build", str(conf), "--json")
    code2, out2, _ = run_cli(capsys, "build", str(conf), "--json")
    assert code1 == code2 == 0
    assert out1 == out2


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


def test_check_trace_that_is_a_directory_exits_2(fips_rules_dir, tmp_path, capsys):
    code, out, err = run_cli(capsys, "check", "--rules", str(fips_rules_dir),
                             "--trace", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"{tmp_path}: is a directory, expected a file\n"


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


def test_metrics_reports_a_meta_file_that_is_not_utf8_and_goes_on(corpus_copy, capsys):
    root = corpus_copy / "jca-android"
    conf = str(root / "base0108.conf")
    _, expected, _ = run_cli(capsys, "metrics", "--meta", str(root), "--configs", conf, "--json")
    latin1 = root / "notes.mcsl"
    latin1.write_bytes(b"// caf\xe9\n")
    code, out, err = run_cli(capsys, "metrics", "--meta", str(root), "--configs", conf, "--json")
    assert code == 0
    assert out == expected
    assert err == f"{latin1}:1:7: error: byte 0xe9 is not valid UTF-8\n"


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


def test_fsm_rule_that_is_a_directory_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "fsm", "--rule", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"{tmp_path}: is a directory, expected a file\n"


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
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, cryslkit.cli; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
