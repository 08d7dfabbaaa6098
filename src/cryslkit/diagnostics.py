"""Source locations and diagnostics shared by every stage of the toolchain,
and :class:`Record`, the base of every value type."""

from __future__ import annotations

from enum import Enum

# Fields that record where a value came from, not what it is.
_UNCOMPARED = frozenset({"loc", "source_path", "order_loc"})


class _RecordType(type):
    """Writes a record class's ``__slots__``, ``_fields`` and ``__init__``
    from its annotated fields, after those of its base."""

    def __new__(mcs, name, bases, namespace):
        own = tuple(namespace.get("__annotations__", ()))
        fields = (bases[0]._fields if bases else ()) + own
        defaults = dict(bases[0]._defaults) if bases else {}
        for field in own:
            if field in namespace:
                defaults[field] = namespace.pop(field)
        namespace["__slots__"] = own
        namespace["_fields"] = fields
        namespace["_compared"] = tuple(f for f in fields if f not in _UNCOMPARED)
        namespace["_defaults"] = defaults
        if "__init__" not in namespace:
            body = "".join(f"\n    self.{f} = {f}" for f in fields) or "\n    pass"
            code: dict = {}
            exec(f"def __init__(self, {', '.join(fields)}):{body}", code)
            init = namespace["__init__"] = code["__init__"]
            init.__defaults__ = tuple(defaults[f] for f in fields if f in defaults) or None
            init.__qualname__ = f"{name}.__init__"
        return super().__new__(mcs, name, bases, namespace)


class Record(metaclass=_RecordType):
    """Base of the value types: one annotated line per field, with an
    optional default, in ``__init__`` order after the fields of the base.

    Equality, hash and repr go by type and fields, leaving out ``loc``,
    ``source_path`` and ``order_loc``; ``replace`` returns a copy with some
    fields changed. Records are immutable by contract, not at run time: no
    API assigns to a record's field after ``__init__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the named fields changed; an unknown name is a ``TypeError``."""
        for name in self._fields:
            if name not in changes:
                changes[name] = getattr(self, name)
        return type(self)(**changes)


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Loc(Record):
    """A 1-based line/column position inside a source file."""

    line: int
    col: int


class Diagnostic(Record):
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
