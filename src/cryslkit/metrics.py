"""Line counting, savings ratio and duplicate-line analysis.

Counting works on normalized lines: surrounding whitespace is trimmed, blank
lines and ``//``-only comment lines are dropped. Duplicates are counted per
extra occurrence of a distinct normalized line across the whole file set, so
three identical lines contribute two duplicates from one duplicated line.
Comment-only lines are excluded so the numbers stay stable under the
emitter's canonical formatting.
"""

from __future__ import annotations

import os
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

from .diagnostics import Diagnostic, Loc, Record, error_at, has_errors
from .emitter import pretty_print
from .model import BuildConfig
from .parsing import ParseError, SourceFile
from .preprocessor import run_build


class LineStats(Record):
    files: int
    total_lines: int
    duplicate_lines: int
    unique_duplicated: int


class SavingsReport(Record):
    meta: LineStats
    generated: LineStats
    savings_ratio: float
    cumulative: tuple[int, ...]  # generated line total after each configuration
    breakeven: int | None  # 1-based configuration index, None if never reached


def normalize_lines(text: str) -> list[str]:
    """The normalized lines of a text whose lines end at ``\\n``, as the
    parsers' do (``str.splitlines`` would also break at U+2028, a form feed
    and others that the parsers read as part of a line)."""
    kept = []
    for line in text.split("\n"):
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        kept.append(stripped)
    return kept


def _line_stats(documents: Sequence[list[str]]) -> LineStats:
    """Line statistics over documents already normalized."""
    counts: Counter = Counter()
    for lines in documents:
        counts.update(lines)
    duplicated = [n for n in counts.values() if n >= 2]
    return LineStats(
        files=len(documents),
        total_lines=sum(counts.values()),
        duplicate_lines=sum(n - 1 for n in duplicated),
        unique_duplicated=len(duplicated),
    )


def count_lines(paths: Iterable[str | Path]) -> tuple[LineStats, list[Diagnostic]]:
    """Line statistics over rule-language files, read as every stage reads
    them (:meth:`SourceFile.from_path`), and an error for each file left
    out: one that cannot be read, at 1:1 with the system's reason, and one
    that is not UTF-8, at its first bad byte."""
    documents = []
    diags: list[Diagnostic] = []
    for path in map(Path, paths):
        try:
            documents.append(normalize_lines(SourceFile.from_path(path).text))
        except OSError as exc:
            diags.append(error_at(Loc(str(path), 1, 1), exc.strerror or str(exc)))
        except ParseError as exc:
            diags.append(exc.diagnostic)
    return _line_stats(documents), diags


def _same_place(diag: Diagnostic) -> Diagnostic:
    """``diag`` with its path resolved, so that two spellings of one file's
    path compare equal."""
    return diag.replace(path=os.path.realpath(diag.path))


def savings_ratio(meta_total: int, generated_total: int) -> float:
    if generated_total == 0:
        return float("-inf")
    return 1.0 - meta_total / generated_total


def savings(
    meta_paths: Iterable[str | Path], configs: Sequence[BuildConfig]
) -> tuple[SavingsReport | None, list[Diagnostic]]:
    """Build every configuration and compare generated text against sources.

    ``meta_paths`` are the hand-written files (specs, refinements and
    configurations). Generated rules are rendered in canonical form and
    counted in memory; nothing is written. The cumulative series accumulates
    generated line totals in the given configuration order, and the
    breakeven index is the first configuration after which the cumulative
    total exceeds the hand-written total. A file that several configurations
    load is parsed once.

    The diagnostics are those of :func:`count_lines`; a failing build adds
    those it does not share with them and an error at its configuration, and
    there is no report.
    """
    meta, diags = count_lines(meta_paths)

    documents: list[list[str]] = []
    cumulative: list[int] = []
    running = 0
    parsed: dict = {}
    for config in configs:
        result = run_build(config, parsed)
        if has_errors(result.diagnostics):
            # A file that count_lines could not decode fails the build too:
            # report it once, however the two spell its path.
            counted = set(map(_same_place, diags))
            diags += [d for d in result.diagnostics if _same_place(d) not in counted]
            diags.append(error_at(config.loc, f"configuration '{config.name}' failed to build"))
            return None, diags
        for _, spec in result.generated:
            lines = normalize_lines(pretty_print(spec))
            documents.append(lines)
            running += len(lines)
        cumulative.append(running)

    generated = _line_stats(documents)
    breakeven = None
    for index, total in enumerate(cumulative, start=1):
        if total > meta.total_lines:
            breakeven = index
            break

    return SavingsReport(
        meta=meta,
        generated=generated,
        savings_ratio=savings_ratio(meta.total_lines, generated.total_lines),
        cumulative=tuple(cumulative),
        breakeven=breakeven,
    ), diags


def report_as_dict(report: SavingsReport) -> dict:
    """JSON-ready view of a savings report (schema in ``docs/formats.md``).

    The ratio is rounded to two decimals here; the in-memory report keeps
    full precision. With no generated lines it is ``None`` (JSON ``null``),
    since JSON has no ``-Infinity``.
    """
    def stats(s: LineStats) -> dict:
        return {name: getattr(s, name) for name in s._fields}

    return {
        "meta": stats(report.meta),
        "generated": stats(report.generated),
        "savings_ratio": round(report.savings_ratio, 2) if report.generated.total_lines else None,
        "cumulative": list(report.cumulative),
        "breakeven": report.breakeven,
    }


def curve_as_csv(report: SavingsReport, config_names: Sequence[str]) -> str:
    """Per-configuration cumulative curve as CSV."""
    lines = ["configuration,cumulative_generated_lines"]
    for name, total in zip(config_names, report.cumulative):
        lines.append(f"{name},{total}")
    return "\n".join(lines) + "\n"
