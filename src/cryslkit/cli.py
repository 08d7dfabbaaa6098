"""Command-line entry point tying the pipeline together.

Subcommands: ``build`` (configuration to concrete rules on disk),
``validate`` (parse and check rule files), ``check`` (trace conformance),
``metrics`` (line-count savings report) and ``fsm`` (ORDER automaton as DOT).

Exit codes: 0 success with no findings, 1 violations or error diagnostics,
2 usage or I/O failure. Machine-readable output goes to stdout, so identical
invocations produce identical stdout bytes; stderr holds one
:class:`Diagnostic` line per problem and the progress lines of docs/formats.md.
Each command imports only the modules it runs, so a cold ``validate`` never
compiles the trace checker.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from stat import S_ISDIR, S_ISREG

from .diagnostics import Diagnostic, Loc, Severity, _one_line, error_at, has_errors
from .parsing import LANGUAGE_BY_EXTENSION, ParseError, _entry_kind, _suffix, file_mode


def _print_diagnostics(diags: list[Diagnostic]) -> None:
    for diag in diags:
        print(diag.render(), file=sys.stderr)


def _path_error(path: str | Path, message: str) -> int:
    """Report a problem with a path the command was given, at 1:1; exit code 2."""
    _print_diagnostics([error_at(Loc(str(path), 1, 1), message)])
    return 2


# The wording for each kind of path, symlinks followed, that an argument
# refuses, by what the argument takes; a kind not listed is accepted. A FIFO
# or a device ("other") reads as a file. A missing path is refused by all.
_REFUSALS = {
    "file": {"directory": "is a directory, expected a file"},
    "directory": {"file": "not a directory", "other": "not a directory"},
    "file or directory": {"other": "not a file or directory"},
}


def _checked(path: Path, takes: str) -> Path:
    """``path``, if it is of a kind that an argument which ``takes`` a
    "file", a "directory" or a "file or directory" accepts; else the
    ``ValueError(path, message)`` that ``main`` reports at it with exit
    code 2. The path is stat-ed once."""
    mode = file_mode(str(path))
    kind = "directory" if S_ISDIR(mode) else "file" if S_ISREG(mode) else "other"
    problem = _REFUSALS[takes].get(kind) if mode else "no such file or directory"
    if problem:
        raise ValueError(str(path), problem)
    return path


def _blocking_path(directory: Path) -> Path | None:
    """The nearest of ``directory`` and its parents that exists, when that
    one is not a directory, so ``directory`` cannot be one."""
    for path in (directory, *directory.parents):
        if os.path.lexists(path):
            return None if path.is_dir() else path
    return None


def _meta_sources(root: str) -> list[str]:
    """The rule-language files under ``root``, a path in normal form, at any
    depth, sorted as paths are, part by part. A name with a leading
    underscore (build output by convention) is skipped with all below it; a
    symlinked file counts, a symlinked directory is not entered and one that
    cannot be listed is skipped. Only a symlink's entry costs a stat."""
    files: list[str] = []
    directories = [root]
    while directories:
        directory = directories.pop()
        try:
            with os.scandir(directory) as listing:
                entries = [entry for entry in listing if not entry.name.startswith("_")]
        except PermissionError:
            continue
        prefix = "" if directory == "." else os.path.join(directory, "")
        for entry in entries:
            is_file, is_dir = _entry_kind(entry)
            if is_file and _suffix(entry.name) in LANGUAGE_BY_EXTENSION:
                files.append(prefix + entry.name)
            elif is_dir and not entry.is_symlink():
                directories.append(prefix + entry.name)
    return sorted(files, key=lambda path: path.split(os.sep))


def _read_rules(files: list[str]) -> tuple[list, list[Diagnostic]]:
    """Parse and validate each rule file, then the set; a file that fails to
    parse is reported and left out."""
    from .model import validate_rule_set, validate_spec
    from .parsing import read_rule

    specs = []
    diags: list[Diagnostic] = []
    for path in files:
        try:
            spec = read_rule(path)
        except ParseError as exc:
            diags.append(exc.diagnostic)
            continue
        diags.extend(validate_spec(spec))
        specs.append(spec)
    diags.extend(validate_rule_set(specs))
    return specs, diags


def _cmd_build(args: argparse.Namespace) -> int:
    from .emitter import emit, json_text
    from .parsing import SourceFile, parse_config
    from .preprocessor import run_build

    config_path = _checked(Path(args.config), "file")
    config = parse_config(SourceFile.from_path(config_path))
    result = run_build(config)
    _print_diagnostics(result.diagnostics)

    out_root = config_path.parent / config.out
    emitted: list[Diagnostic] = []  # about the output directory or its manifest
    blocker = _blocking_path(out_root)
    if blocker is not None:
        problem = "is not a directory" if blocker == out_root else (
            f"cannot be made: '{blocker}' is not a directory")
        emitted.append(error_at(config.loc, f"output path: out '{out_root}' {problem}"))
        written = []
    elif args.dry_run:
        written = [str(out_root / name) for name, _ in result.generated]
    else:
        written = [str(p) for p in emit(result, out_root, emitted)]
    _print_diagnostics(emitted)
    diagnostics = result.diagnostics + emitted

    if args.json:
        payload = {
            "config": config.name,
            "out": str(out_root),
            "dry_run": bool(args.dry_run),
            "files": written,
            "stats": {name: getattr(result.stats, name) for name in result.stats._fields},
            "errors": sum(d.severity is Severity.ERROR for d in diagnostics),
            "warnings": sum(d.severity is Severity.WARNING for d in diagnostics),
        }
        print("".join(json_text(payload)))
    else:
        for path in written:
            print(path)
        verb = "planned" if args.dry_run else "wrote"
        print(f"{config.name}: {verb} {len(written)} file(s)", file=sys.stderr)

    return 1 if has_errors(diagnostics) else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .parsing import RULE_SUFFIXES, rule_files

    files: list[str] = []
    for raw in args.paths:
        path = Path(raw)
        listed = rule_files(path, RULE_SUFFIXES)
        if listed is None:  # refused: only now stat-ed again, to say why
            _checked(path, "file or directory")
            return _path_error(path, "not a file or directory")  # it changed in between
        files += listed
    specs, diags = _read_rules(files)

    _print_diagnostics(diags)
    errors = sum(d.severity is Severity.ERROR for d in diags)
    warnings = len(diags) - errors
    print(
        f"{len(files)} file(s): {errors} error(s), {warnings} warning(s)",
        file=sys.stderr,
    )
    return 1 if errors else 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .parsing import rule_files
    from .tracecheck import check_trace, compile_rules, load_trace, report

    rules_dir = Path(args.rules)
    files = rule_files(rules_dir, (".crysl",))
    if files is None or files == [str(rules_dir)]:  # refused: stat-ed again to say why
        _checked(rules_dir, "directory")
        return _path_error(rules_dir, "not a directory")  # it changed in between
    specs, diags = _read_rules(files)
    _print_diagnostics(diags)
    if has_errors(diags):
        return 1
    if not specs:
        return _path_error(rules_dir, "no .crysl rules found")

    trace, trace_diags = load_trace(_checked(Path(args.trace), "file"))
    _print_diagnostics(trace_diags)

    result = check_trace(compile_rules(specs), trace)
    del trace  # nothing reads the events again; the report's memory need not add to theirs
    _print_diagnostics(result.warnings)
    sys.stdout.write(report(result.violations, args.format))
    return 1 if result.violations or has_errors(trace_diags) else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .emitter import json_text
    from .metrics import curve_as_csv, report_as_dict, savings
    from .parsing import SourceFile, parse_config

    meta_dir = _checked(Path(args.meta), "directory")
    configs = [parse_config(SourceFile.from_path(_checked(Path(raw), "file")))
               for raw in args.configs]
    result, diags = savings(_meta_sources(str(meta_dir)), configs)
    _print_diagnostics(diags)
    if result is None:
        return 1

    if args.csv:
        Path(args.csv).write_text(
            curve_as_csv(result, [c.name for c in configs]), encoding="utf-8"
        )
        print(f"wrote {_one_line(args.csv)}", file=sys.stderr)

    payload = report_as_dict(result)
    if args.json:
        print("".join(json_text(payload)))
    else:
        print(f"meta:      {result.meta.total_lines} lines in {result.meta.files} files "
              f"({result.meta.duplicate_lines} duplicates)")
        print(f"generated: {result.generated.total_lines} lines in {result.generated.files} files "
              f"({result.generated.duplicate_lines} duplicates)")
        ratio = payload["savings_ratio"]
        print("savings:   " + ("none (nothing generated)" if ratio is None else f"{ratio:.2f}"))
        breakeven = "none yet" if result.breakeven is None else f"configuration {result.breakeven}"
        print(f"breakeven: {breakeven}")
    return 1 if diags else 0


def _cmd_fsm(args: argparse.Namespace) -> int:
    from .automaton import StateLimitError, compile_order, to_dot
    from .model import validate_spec
    from .parsing import SourceFile, parse_crysl

    spec = parse_crysl(SourceFile.from_path(_checked(Path(args.rule), "file")))
    diags = validate_spec(spec)
    _print_diagnostics(diags)
    if has_errors(diags):
        return 1
    try:
        automaton = compile_order(spec.order, spec.aggregates)
    except StateLimitError as exc:
        _print_diagnostics(
            [error_at(spec.order_loc, f"ORDER of {spec.class_name}: {exc}")]
        )
        return 1
    if args.dot:
        sys.stdout.write(to_dot(automaton))
    else:
        accepting = ", ".join(str(s) for s in sorted(automaton.accepting))
        print(f"rule: {spec.class_name}")
        print(f"alphabet: {', '.join(sorted(automaton.alphabet))}")
        print(f"states: {automaton.state_count} (accepting: {accepting})")
        print(f"transitions: {len(automaton.transitions)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryslkit",
        description="Generate, validate and check families of CrySL usage rules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="resolve a configuration and emit concrete rules")
    p_build.add_argument("config", help="build configuration (.conf)")
    p_build.add_argument("--dry-run", action="store_true", help="list files without writing")
    p_build.add_argument("--json", action="store_true", help="machine-readable result on stdout")
    p_build.set_defaults(func=_cmd_build)

    p_validate = sub.add_parser("validate", help="parse and validate rule files")
    p_validate.add_argument("paths", nargs="+", help="rule files or directories (.crysl/.mcsl)")
    p_validate.set_defaults(func=_cmd_validate)

    p_check = sub.add_parser("check", help="check an event trace against generated rules")
    p_check.add_argument("--rules", required=True, help="directory of concrete .crysl rules")
    p_check.add_argument("--trace", required=True, help="JSON-lines trace file")
    p_check.add_argument("--format", choices=("json", "table"), default="table")
    p_check.set_defaults(func=_cmd_check)

    p_metrics = sub.add_parser("metrics", help="line-count savings over a rule family")
    p_metrics.add_argument("--meta", required=True, help="directory of hand-written sources")
    p_metrics.add_argument("--configs", required=True, nargs="+",
                           help="configurations, in reporting order")
    p_metrics.add_argument("--json", action="store_true")
    p_metrics.add_argument("--csv", help="also write the cumulative curve as CSV to this path")
    p_metrics.set_defaults(func=_cmd_metrics)

    p_fsm = sub.add_parser("fsm", help="show the ORDER automaton of a rule")
    p_fsm.add_argument("--rule", required=True, help="concrete rule file (.crysl)")
    p_fsm.add_argument("--dot", action="store_true", help="print DOT on stdout")
    p_fsm.set_defaults(func=_cmd_fsm)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        _print_diagnostics([exc.diagnostic])
        return 1
    except (OSError, ValueError) as exc:
        # An OSError names its file; parsing and _checked raise ValueError(path, message).
        path, message = ((exc.filename, exc.strerror) if isinstance(exc, OSError)
                         else exc.args if len(exc.args) == 2 else (None, None))
        return _path_error("<cryslkit>" if path is None else str(path), str(message or exc))


if __name__ == "__main__":
    sys.exit(main())
