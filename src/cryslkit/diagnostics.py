"""Source locations and diagnostics shared by every stage of the toolchain."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Loc:
    """A 1-based line/column position inside a source file."""

    line: int
    col: int


@dataclass(frozen=True)
class Diagnostic:
    path: str
    line: int
    column: int
    severity: Severity
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.severity.value}: {self.message}"


class LocatedError(Exception):
    """An error at a place in a source file, line 1 column 1 when the place is
    not known; ``diagnostic`` reports it."""

    def __init__(self, path: str, loc: Loc | None, message: str):
        self.diagnostic = error_at(path, loc, message)
        super().__init__(f"{path}:{self.diagnostic.line}:{self.diagnostic.column}: {message}")


def error_at(path: str, loc: Loc | None, message: str) -> Diagnostic:
    loc = loc or Loc(1, 1)
    return Diagnostic(path, loc.line, loc.col, Severity.ERROR, message)


def warning_at(path: str, loc: Loc | None, message: str) -> Diagnostic:
    loc = loc or Loc(1, 1)
    return Diagnostic(path, loc.line, loc.col, Severity.WARNING, message)


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)
