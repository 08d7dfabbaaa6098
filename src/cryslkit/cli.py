"""Command-line entry point tying the pipeline together.

Subcommands: ``build`` (configuration to concrete rules on disk),
``validate`` (parse and check rule files), ``check`` (trace conformance),
``metrics`` (line-count savings report) and ``fsm`` (ORDER automaton as DOT).

Exit codes: 0 success with no findings, 1 violations or error diagnostics,
2 usage or I/O failure. Machine-readable output goes to stdout; diagnostics
and progress go to stderr, so identical invocations produce identical stdout
bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .automaton import StateLimitError, compile_order, to_dot
from .diagnostics import Diagnostic, Severity, error_at, has_errors
from .emitter import emit
from .metrics import BuildFailure, curve_as_csv, report_as_dict, savings
from .model import validate_rule_set, validate_spec
from .parsing import (
    LANGUAGE_BY_EXTENSION,
    RULE_SUFFIXES,
    ParseError,
    SourceFile,
    parse_config,
    parse_crysl,
    read_rule,
    rule_files,
)
from .preprocessor import run_build
from .tracecheck import compile_rules, load_trace, report, check_trace


def _print_diagnostics(diags: list[Diagnostic]) -> None:
    for diag in diags:
        print(diag.render(), file=sys.stderr)


def _is_file(path: Path) -> bool:
    """True for a file; otherwise say on stderr what ``path`` is instead."""
    if path.is_file():
        return True
    problem = "is a directory, expected a file" if path.is_dir() else "no such file"
    print(f"{path}: {problem}", file=sys.stderr)
    return False


def _read_rules(files: list[Path]) -> tuple[list, list[Diagnostic]]:
    """Parse and validate each rule file, then the set; a file that fails to
    parse is reported and left out."""
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
    config_path = Path(args.config)
    config = parse_config(SourceFile.from_path(config_path))
    result = run_build(config)
    _print_diagnostics(result.diagnostics)

    out_root = config_path.parent / config.out
    if args.dry_run:
        written = [str(out_root / name) for name, _ in result.generated]
    else:
        written = [str(p) for p in emit(result, out_root)]

    if args.json:
        payload = {
            "config": config.name,
            "out": str(out_root),
            "dry_run": bool(args.dry_run),
            "files": written,
            "stats": {name: getattr(result.stats, name) for name in result.stats._fields},
            "errors": sum(d.severity is Severity.ERROR for d in result.diagnostics),
            "warnings": sum(d.severity is Severity.WARNING for d in result.diagnostics),
        }
        print(json.dumps(payload, indent=2))
    else:
        for path in written:
            print(path)
        verb = "planned" if args.dry_run else "wrote"
        print(f"{config.name}: {verb} {len(written)} file(s)", file=sys.stderr)

    return 1 if has_errors(result.diagnostics) else 0


def _cmd_validate(args: argparse.Namespace) -> int:
    files: list[Path] = []
    for raw in args.paths:
        path = Path(raw)
        if not path.exists():
            print(f"{path}: no such file or directory", file=sys.stderr)
            return 2
        files.extend(rule_files(path, RULE_SUFFIXES))
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
    rules_dir = Path(args.rules)
    if not rules_dir.is_dir():
        print(f"{rules_dir}: not a directory", file=sys.stderr)
        return 2
    specs, diags = _read_rules(rule_files(rules_dir, (".crysl",)))
    _print_diagnostics(diags)
    if has_errors(diags):
        return 1
    if not specs:
        print(f"{rules_dir}: no .crysl rules found", file=sys.stderr)
        return 2

    trace_path = Path(args.trace)
    if not _is_file(trace_path):
        return 2
    trace, trace_diags = load_trace(trace_path)
    _print_diagnostics(trace_diags)

    result = check_trace(compile_rules(specs), trace)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    sys.stdout.write(report(result.violations, args.format))
    return 1 if result.violations or has_errors(trace_diags) else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    meta_dir = Path(args.meta)
    if not meta_dir.is_dir():
        print(f"{meta_dir}: not a directory", file=sys.stderr)
        return 2
    # Directories with a leading underscore (build output by convention) do
    # not count as hand-written sources.
    meta_paths = sorted(
        p for p in meta_dir.rglob("*")
        if p.is_file() and p.suffix in LANGUAGE_BY_EXTENSION
        and not any(part.startswith("_") for part in p.relative_to(meta_dir).parts)
    )
    configs = []
    for raw in args.configs:
        configs.append(parse_config(SourceFile.from_path(raw)))

    unread: list[Path] = []

    def on_error(path: Path, exc: OSError | ParseError) -> None:
        unread.append(path)
        if isinstance(exc, ParseError):
            _print_diagnostics([exc.diagnostic])
        else:
            print(f"{path}: unreadable: {exc}", file=sys.stderr)

    try:
        result = savings(meta_paths, configs, on_error)
    except BuildFailure as exc:
        _print_diagnostics(exc.diagnostics)
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.csv:
        Path(args.csv).write_text(
            curve_as_csv(result, [c.name for c in configs]), encoding="utf-8"
        )
        print(f"wrote {args.csv}", file=sys.stderr)

    payload = report_as_dict(result)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"meta:      {result.meta.total_lines} lines in {result.meta.files} files "
              f"({result.meta.duplicate_lines} duplicates)")
        print(f"generated: {result.generated.total_lines} lines in {result.generated.files} files "
              f"({result.generated.duplicate_lines} duplicates)")
        ratio = payload["savings_ratio"]
        print("savings:   " + ("none (nothing generated)" if ratio is None else f"{ratio:.2f}"))
        breakeven = "none yet" if result.breakeven is None else f"configuration {result.breakeven}"
        print(f"breakeven: {breakeven}")
    return 1 if unread else 0


def _cmd_fsm(args: argparse.Namespace) -> int:
    path = Path(args.rule)
    if not _is_file(path):
        return 2
    spec = parse_crysl(SourceFile.from_path(path))
    diags = validate_spec(spec)
    _print_diagnostics(diags)
    if has_errors(diags):
        return 1
    try:
        automaton = compile_order(spec.order, spec.aggregates)
    except StateLimitError as exc:
        _print_diagnostics(
            [error_at(str(path), spec.order_loc, f"ORDER of {spec.class_name}: {exc}")]
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
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
