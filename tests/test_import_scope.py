"""What a cold process imports: ``import cryslkit`` loads no submodule, and
each command loads only the modules it runs. Every test starts a fresh
interpreter, so no module another test imported can hide a load."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys

import pytest

from conftest import REPO_ROOT
from cryslkit.cli import main


def run_python(code: str, *args: str, cwd=REPO_ROOT) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


LOADED = "sorted(name for name in sys.modules if name.startswith('cryslkit.'))"


def test_import_cryslkit_loads_no_submodule():
    assert run_python(f"import sys, cryslkit; print({LOADED})") == "[]\n"


# Each command's modules besides cli, diagnostics, model and parsing, which
# every command loads: main catches ParseError, and every command parses.
# validate and fsm write no JSON, so they load no json module either; the
# diagnostics module, which every command loads, escapes without it.
NO_JSON = ("validate", "fsm")
COMMANDS = {
    "validate": (["validate", "standards/base"], 0, []),
    "fsm": (["fsm", "--rule", "standards/_generated/fips/MessageDigest.crysl"], 0,
            ["automaton"]),
    "build": (["build", "standards/fips.conf", "--json"], 0, ["emitter", "preprocessor"]),
    "metrics": (["metrics", "--meta", "standards", "--configs", "standards/fips.conf", "--json"],
                0, ["emitter", "metrics", "preprocessor"]),
    "check": (["check", "--rules", "standards/_generated/fips",
               "--trace", "traces/standards/md5_digest.jsonl", "--format", "json"], 1,
              ["automaton", "emitter", "tracecheck"]),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_its_modules(corpus_copy, command):
    assert main(["build", str(corpus_copy / "standards" / "fips.conf")]) == 0  # for fsm and check
    argv, code, modules = COMMANDS[command]
    out = run_python(
        "import contextlib, io, sys\n"
        "from cryslkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        f"print(code, {LOADED}, 'json' in sys.modules)",
        *argv, cwd=corpus_copy,
    )
    expected = sorted(["cryslkit.cli", "cryslkit.diagnostics", "cryslkit.model",
                       "cryslkit.parsing", *(f"cryslkit.{name}" for name in modules)])
    assert out == f"{code} {expected} {command not in NO_JSON}\n"


def test_every_exported_name_resolves_and_is_listed():
    out = run_python(
        "import json, cryslkit\n"
        "missing = [n for n in cryslkit.__all__ if getattr(cryslkit, n, None) is None]\n"
        "print(json.dumps([missing, sorted(set(cryslkit.__all__) - set(dir(cryslkit)))]))"
    )
    assert json.loads(out) == [[], []]


def test_the_readme_library_example_imports_only_exported_names():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    [imported] = re.findall(r"from cryslkit import \(([^)]*)\)", readme)
    names = set(re.findall(r"\w+", imported))
    exported = set(json.loads(run_python("import json, cryslkit; print(json.dumps(cryslkit.__all__))")))
    assert names and names <= exported, names - exported


SOURCES = sorted((REPO_ROOT / "src" / "cryslkit").glob("*.py"))


@pytest.mark.parametrize("source", SOURCES, ids=[path.name for path in SOURCES])
def test_every_module_level_import_is_used(source):
    # A cold process compiles every module it imports, so an import left
    # behind by a deletion still costs start-up time.
    tree = ast.parse(source.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [
        alias.asname or alias.name.partition(".")[0]
        for statement in tree.body
        if isinstance(statement, ast.Import)
        or isinstance(statement, ast.ImportFrom) and statement.module != "__future__"
        for alias in statement.names
    ]
    assert [name for name in bound if name not in used] == []


_LISTING_CALLS = {"scandir", "listdir", "walk", "iterdir", "glob", "rglob"}
_KIND_CALLS = {"exists", "is_dir", "is_file", "lexists", "isdir", "isfile", "os.stat"}


def _call_name(func: ast.expr) -> str | None:
    """A called method's or function's name; ``os.stat`` in full."""
    if isinstance(func, ast.Attribute):
        return "os.stat" if ast.unparse(func) == "os.stat" else func.attr
    return getattr(func, "id", None)


def _callers(node: ast.AST, owner: str, names: set[str]):
    """The name of the function around each call under ``node`` of one of
    ``names``; ``owner`` for a call in no function below it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef):
            yield from _callers(child, child.name, names)
            continue
        if isinstance(child, ast.Call) and _call_name(child.func) in names:
            yield owner
        yield from _callers(child, owner, names)


def _modules_calling(names: set[str]) -> set[str]:
    return {
        f"{source.stem}.{owner}"
        for source in SOURCES
        for owner in _callers(ast.parse(source.read_text(encoding="utf-8")), "<module>", names)
    }


def test_only_rule_files_and_the_metrics_walk_list_a_directory():
    # Rule files are collected one way: validate, check --rules and a
    # configuration's load all list through parsing.rule_files. The walk of
    # metrics --meta goes to any depth and skips "_" directories.
    assert _modules_calling(_LISTING_CALLS) == {"parsing.rule_files", "cli._meta_sources"}


def test_only_the_path_checks_ask_what_kind_a_path_is():
    # A path's kind is asked one way: parsing.file_mode stats it once, and
    # rule_files, load and the command line's path check all decide by it.
    # The output root's ancestors are looked up with lexists, so that a
    # dangling symlink blocks. Directory walks decide by parsing._entry_kind.
    assert _modules_calling(_KIND_CALLS) == {
        "parsing.file_mode", "parsing._entry_kind", "cli._blocking_path",
    }


def test_json_is_laid_out_by_the_one_writer():
    # Every JSON output goes through emitter.json_text: no module asks
    # json.dumps for an indented layout, and the command line imports no json.
    indented = [
        f"{source.name}:{node.lineno}"
        for source in SOURCES
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _call_name(node.func) == "dumps"
        and any(keyword.arg == "indent" for keyword in node.keywords)
    ]
    cli_tree = ast.parse((REPO_ROOT / "src" / "cryslkit" / "cli.py").read_text(encoding="utf-8"))
    cli_json_imports = [
        node.lineno for node in ast.walk(cli_tree)
        if isinstance(node, ast.Import) and any(a.name.partition(".")[0] == "json" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "json"
    ]
    assert (indented, cli_json_imports) == ([], [])


def test_no_module_splits_lines_with_splitlines():
    # A line ends at \n once read_source or the trace reader has translated
    # \r\n and \r; str.splitlines would also break at U+2028, a form feed
    # and others, which the parsers read as part of a line.
    calls = [
        f"{source.name}:{node.lineno}"
        for source in SOURCES
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "splitlines"
    ]
    assert calls == []


def test_only_the_diagnostics_module_makes_a_diagnostic():
    # Every other module reports through error_at or warning_at, so every
    # reported place takes its file from a location.
    calls = [
        f"{source.name}:{node.lineno}"
        for source in SOURCES if source.name != "diagnostics.py"
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and "Diagnostic" in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None))
    ]
    assert calls == []
