"""Line counting, savings ratio and duplicate-line analysis.

Counting works on normalized lines: surrounding whitespace is trimmed, blank
lines and ``//``-only comment lines are dropped. Duplicates are counted per
extra occurrence of a distinct normalized line across the whole file set, so
three identical lines contribute two duplicates from one duplicated line.
Comment-only lines are excluded so the numbers stay stable under the
emitter's canonical formatting.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .diagnostics import Diagnostic, Record, has_errors
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


class BuildFailure(Exception):
    """A configuration failed to build while computing metrics."""

    def __init__(self, config_name: str, diagnostics: list[Diagnostic]):
        rendered = "; ".join(d.render() for d in diagnostics[:3])
        super().__init__(f"configuration '{config_name}' failed to build: {rendered}")
        self.config_name = config_name
        self.diagnostics = diagnostics


def normalize_lines(text: str) -> list[str]:
    kept = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("//"):
            continue
        kept.append(stripped)
    return kept


def count_text_lines(texts: Sequence[str]) -> LineStats:
    """Line statistics over in-memory documents (one counter for the set)."""
    return _line_stats([normalize_lines(text) for text in texts])


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


def count_lines(
    paths: Iterable[str | Path],
    on_error: Callable[[Path, OSError | ParseError], None] | None = None,
) -> LineStats:
    """Line statistics over rule-language files, read as every stage reads
    them (:meth:`SourceFile.from_path`); a file that cannot be read
    (``OSError``) or is not UTF-8 (``ParseError`` at its first bad byte) is
    reported via ``on_error`` and the remaining files are still counted."""
    texts = []
    for path in map(Path, paths):
        try:
            texts.append(SourceFile.from_path(path).text)
        except (OSError, ParseError) as exc:
            if on_error is not None:
                on_error(path, exc)
    return count_text_lines(texts)


def savings_ratio(meta_total: int, generated_total: int) -> float:
    if generated_total == 0:
        return float("-inf")
    return 1.0 - meta_total / generated_total


def savings(
    meta_paths: Iterable[str | Path],
    configs: Sequence[BuildConfig],
    on_error: Callable[[Path, OSError | ParseError], None] | None = None,
) -> SavingsReport:
    """Build every configuration and compare generated text against sources.

    ``meta_paths`` are the hand-written files (specs, refinements and
    configurations). Generated rules are rendered in canonical form and
    counted in memory; nothing is written. The cumulative series accumulates
    generated line totals in the given configuration order, and the
    breakeven index is the first configuration after which the cumulative
    total exceeds the hand-written total. Any failing build aborts with its
    diagnostics.
    """
    meta = count_lines(meta_paths, on_error)

    documents: list[list[str]] = []
    cumulative: list[int] = []
    running = 0
    for config in configs:
        result = run_build(config)
        if has_errors(result.diagnostics):
            raise BuildFailure(config.name, result.diagnostics)
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
    )


def report_as_dict(report: SavingsReport) -> dict:
    """JSON-ready view of a savings report (schema in ``docs/formats.md``).

    The ratio is rounded to two decimals here; the in-memory report keeps
    full precision.
    """
    def stats(s: LineStats) -> dict:
        return {name: getattr(s, name) for name in s._fields}

    return {
        "meta": stats(report.meta),
        "generated": stats(report.generated),
        "savings_ratio": round(report.savings_ratio, 2),
        "cumulative": list(report.cumulative),
        "breakeven": report.breakeven,
    }


def curve_as_csv(report: SavingsReport, config_names: Sequence[str]) -> str:
    """Per-configuration cumulative curve as CSV."""
    lines = ["configuration,cumulative_generated_lines"]
    for name, total in zip(config_names, report.cumulative):
        lines.append(f"{name},{total}")
    return "\n".join(lines) + "\n"
