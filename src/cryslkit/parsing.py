"""Parsers for the four surface languages.

Dispatch is by file extension: ``.crysl`` concrete rules, ``.mcsl`` abstract
rules, ``.ref`` refinement files, ``.conf`` build configurations. The grammar
reference in ``docs/grammar.md`` is normative for this toolchain; all four
languages share ``//`` end-of-line comments, double-quoted string literals and
decimal integer literals.

The abstract grammar is a strict superset of the concrete one: any ``.crysl``
text also parses as ``.mcsl``, yielding an :class:`~cryslkit.model.AbstractSpec`
without variation points.

Parsers are pure functions of the input text. The first syntax error aborts
the file and is raised as :class:`ParseError`, which carries a diagnostic
pointing into the input.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from pathlib import Path
from typing import NoReturn

from .diagnostics import Loc, LocatedError, Record
from .model import (
    AbstractSpec,
    AddConstraint,
    AddEnsures,
    AddEvent,
    AddRequires,
    AggregateDecl,
    Alt,
    Atom,
    BuildConfig,
    ConstraintExpr,
    CrySLSpec,
    DefineLiteralSet,
    EventDecl,
    Implication,
    LiteralArg,
    LiteralSet,
    LoadDirective,
    Membership,
    MetaVarRef,
    ObjectDecl,
    Opt,
    OrderExpr,
    ParamRef,
    Plus,
    PredicateRef,
    RefinementOp,
    RefinementSpec,
    RemoveConstraint,
    RemoveEvent,
    RemovePredicate,
    ReplaceOrder,
    Seq,
    Star,
    VarRef,
    Wildcard,
)

LANGUAGE_BY_EXTENSION = {
    ".crysl": "crysl",
    ".mcsl": "abstract",
    ".ref": "refinement",
    ".conf": "config",
}

RULE_SUFFIXES = (".crysl", ".mcsl")
SECTION_KEYWORDS = ("OBJECTS", "EVENTS", "ORDER", "CONSTRAINTS", "REQUIRES", "ENSURES")
RESERVED_WORDS = frozenset(SECTION_KEYWORDS) | {"SPEC", "ABSTRACT"}

_TRIVIA_RE = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_PATH_RE = re.compile(r"[^\s;{}]+")
# An element is one character other than a quote, backslash or newline, or a
# backslash and the character after it. Elements are one character wide and
# start differently, so a failed match takes linear time and cannot backtrack
# an escaped quote into a closing one.
_STRING_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')
_ESCAPE_RE = re.compile(r'\\(["\\])')
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]")  # a byte escaped by "surrogateescape"


class ParseError(LocatedError):
    """A syntax error with a location inside the offending file."""


def undecodable_byte(text: str) -> tuple[int, str] | None:
    """Index of the first byte that ``surrogateescape`` kept in ``text``, and
    the message naming it; None when every byte decoded."""
    match = _UNDECODABLE_RE.search(text)
    if match is None:
        return None
    return match.start(), f"byte 0x{ord(match.group()) - 0xdc00:02x} is not valid UTF-8"


class SourceFile(Record):
    """UTF-8 text with a language tag inferred from the file extension.

    A file that is not UTF-8 is a ``ParseError`` at its first byte that does
    not decode.
    """

    path: str
    text: str
    language: str

    @classmethod
    def from_path(cls, path: str | Path) -> "SourceFile":
        path = Path(path)
        language = LANGUAGE_BY_EXTENSION.get(path.suffix)
        if language is None:
            raise ValueError(f"{path}: unknown rule-file extension '{path.suffix}'")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            # Read again, keeping undecodable bytes, to locate the first one
            # with the same newline translation the parsers see.
            text = path.read_text(encoding="utf-8", errors="surrogateescape")
            at, message = undecodable_byte(text)
            line_start = text.rfind("\n", 0, at)
            raise ParseError(
                str(path), Loc(text.count("\n", 0, at) + 1, at - line_start), message
            ) from None
        return cls(str(path), text, language)

    @classmethod
    def for_text(cls, text: str, language: str, path: str = "<memory>") -> "SourceFile":
        if language not in LANGUAGE_BY_EXTENSION.values():
            raise ValueError(f"unknown language tag '{language}'")
        return cls(path, text, language)


def rule_files(path: Path, suffixes: tuple[str, ...]) -> list[Path]:
    """A file itself, or the files with one of ``suffixes`` in a directory and
    its direct subdirectories, sorted by path."""
    if path.is_file():
        return [path]
    files = [p for p in path.iterdir() if p.is_file() and p.suffix in suffixes]
    files += [p for sub in path.iterdir() if sub.is_dir()
              for p in sub.iterdir() if p.is_file() and p.suffix in suffixes]
    return sorted(files, key=lambda p: p.as_posix())


def read_rule(path: str | Path, concrete: bool = False) -> CrySLSpec:
    """Parse a rule file by its language: ``.crysl`` as a concrete rule, any
    other extension as ``.mcsl`` (only ``.crysl`` when ``concrete``); an
    extension of the wrong language is a ``ValueError``."""
    source = SourceFile.from_path(path)
    if concrete or source.language == "crysl":
        return parse_crysl(source)
    return parse_abstract(source)


class _Scanner:
    """Cursor over one file's text.

    All ``take_*`` helpers skip whitespace and ``//`` comments first. A
    location is computed only when asked for, from the newline offsets.
    """

    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path
        self.pos = 0
        self._newlines = [m.start() for m in re.finditer("\n", text)]

    def error(self, message: str, loc: Loc | None = None) -> NoReturn:
        raise ParseError(self.path, loc or self.loc(), message)

    def loc(self, at: int | None = None) -> Loc:
        """1-based line and column of offset ``at``, by default of the next token."""
        if at is None:
            at = self.skip_trivia()
        line = bisect_left(self._newlines, at)
        return Loc(line + 1, at - self._newlines[line - 1] if line else at + 1)

    def skip_trivia(self) -> int:
        self.pos = _TRIVIA_RE.match(self.text, self.pos).end()
        return self.pos

    def eof(self) -> bool:
        return self.skip_trivia() >= len(self.text)

    def peek_char(self) -> str | None:
        pos = self.skip_trivia()
        return self.text[pos] if pos < len(self.text) else None

    def peek_word(self) -> str | None:
        match = _WORD_RE.match(self.text, self.skip_trivia())
        return match.group() if match else None

    def take(self, pattern: re.Pattern, what: str) -> str:
        match = pattern.match(self.text, self.skip_trivia())
        if not match:
            self.error(f"expected {what}")
        self.pos = match.end()
        return match.group()

    def take_word(self, what: str = "identifier") -> str:
        return self.take(_WORD_RE, what)

    def try_word(self, word: str) -> bool:
        if self.peek_word() == word:
            self.pos += len(word)
            return True
        return False

    def expect_word(self, word: str) -> None:
        if not self.try_word(word):
            self.error(f"expected '{word}', found {self.peek_word() or self._describe_next()}")

    def try_punct(self, punct: str) -> bool:
        if self.text.startswith(punct, self.skip_trivia()):
            self.pos += len(punct)
            return True
        return False

    def expect_punct(self, punct: str) -> None:
        if not self.try_punct(punct):
            self.error(f"expected '{punct}', found {self._describe_next()}")

    def take_int(self) -> int:
        digits = self.take(_INT_RE, "integer literal")
        try:
            return int(digits)
        except ValueError:  # more digits than sys.get_int_max_str_digits(), 4300 by default
            self.error(f"integer literal of {len(digits)} digits is too long",
                       self.loc(self.pos - len(digits)))

    def take_string(self) -> str:
        """The string literal that starts at the next token's quote."""
        match = _STRING_RE.match(self.text, self.skip_trivia())
        if not match:
            self.error("unterminated string literal")
        self.pos = match.end()
        return _ESCAPE_RE.sub(r"\1", match.group(1))

    def _describe_next(self) -> str:
        ch = self.peek_char()
        return "end of file" if ch is None else f"'{ch}'"


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _separated(sc: _Scanner, item, separator: str = ",") -> tuple:
    """One or more ``item()`` results with ``separator`` between them."""
    items = [item()]
    while sc.try_punct(separator):
        items.append(item())
    return tuple(items)


def _qualified_ident(sc: _Scanner, what: str = "name") -> str:
    parts = [sc.take_word(what)]
    while sc.try_punct("."):
        parts.append(sc.take_word("name segment"))
    return ".".join(parts)


def _placeholder(sc: _Scanner, type_params: tuple[str, ...]) -> str:
    at = sc.skip_trivia()
    sc.expect_punct("<")
    param = sc.take_word("type parameter")
    sc.expect_punct(">")
    if param not in type_params:
        sc.error(f"type parameter '{param}' is not declared", sc.loc(at))
    return f"<{param}>"


def _type_ref(sc: _Scanner, abstract: bool, type_params: tuple[str, ...] = ()) -> str:
    if abstract and sc.peek_char() == "<":
        base = _placeholder(sc, type_params)
    else:
        base = _qualified_ident(sc, "type name")
    while sc.try_punct("[]"):
        base += "[]"
    return base


def _literal(sc: _Scanner):
    ch = sc.peek_char()
    if ch == '"':
        return sc.take_string()
    if ch is not None and ch.isdigit():
        return sc.take_int()
    sc.error("expected string or integer literal")


def _literal_set(sc: _Scanner) -> LiteralSet:
    sc.expect_punct("{")
    values = _separated(sc, lambda: _literal(sc))
    sc.expect_punct("}")
    return LiteralSet(frozenset(values))


def _set_expr(sc: _Scanner, abstract: bool):
    if sc.peek_char() == "$":
        if not abstract:
            sc.error("meta-variables are only allowed in abstract rules")
        sc.expect_punct("$")
        return MetaVarRef(sc.take_word("meta-variable name"))
    return _literal_set(sc)


def _membership(sc: _Scanner, abstract: bool) -> Membership:
    loc = sc.loc()
    var = sc.take_word("variable")
    sc.expect_word("in")
    return Membership(var, _set_expr(sc, abstract), loc=loc)


def _constraint(sc: _Scanner, abstract: bool) -> ConstraintExpr:
    lhs = _membership(sc, abstract)
    if sc.try_punct("=>"):
        rhs = _membership(sc, abstract)
        return Implication(lhs, rhs, loc=lhs.loc)
    return lhs


def _predicate(sc: _Scanner) -> PredicateRef:
    loc = sc.loc()
    name = sc.take_word("predicate name")
    sc.expect_punct("[")
    args = _separated(sc, lambda: sc.take_word("predicate argument"))
    sc.expect_punct("]")
    return PredicateRef(name, args, loc=loc)


def _param(sc: _Scanner) -> ParamRef:
    ch = sc.peek_char()
    if ch == '"' or (ch is not None and ch.isdigit()):
        return LiteralArg(_literal(sc))
    word = sc.take_word("parameter")
    if word == "_":
        return Wildcard()
    return VarRef(word)


def _event_decl(sc: _Scanner, abstract: bool, type_params: tuple[str, ...] = ()) -> EventDecl:
    loc = sc.loc()
    label = sc.take_word("event label")
    sc.expect_punct(":")
    return_binding = None
    if abstract and sc.peek_char() == "<":
        method = _placeholder(sc, type_params)
    else:
        word = sc.take_word("method name")
        if sc.try_punct("="):
            return_binding = word
            if abstract and sc.peek_char() == "<":
                method = _placeholder(sc, type_params)
            else:
                method = sc.take_word("method name")
        else:
            method = word
    sc.expect_punct("(")
    params: tuple[ParamRef, ...] = ()
    if sc.peek_char() != ")":
        params = _separated(sc, lambda: _param(sc))
    sc.expect_punct(")")
    return EventDecl(label, return_binding, method, params, loc=loc)


# ---------------------------------------------------------------------------
# Order expressions
# ---------------------------------------------------------------------------


# Deepest nesting accepted in an ORDER expression, counting parentheses and
# the ?, * and + operators on the way to each atom; deeper input would exhaust
# the recursion of this parser and of the walks over its tree.
MAX_ORDER_DEPTH = 100

# Each function below returns the expression it parsed and the deepest
# nesting level inside it, the enclosing ``depth`` included.


def _order_primary(sc: _Scanner, depth: int) -> tuple[OrderExpr, int]:
    if sc.try_punct("("):
        if depth == MAX_ORDER_DEPTH:
            sc.error(f"ORDER nests parentheses deeper than {MAX_ORDER_DEPTH} levels",
                     sc.loc(sc.pos - 1))
        inner = _order_alt(sc, depth + 1)
        sc.expect_punct(")")
        return inner
    word = sc.peek_word()
    if word is None or word in RESERVED_WORDS:
        sc.error("expected event label or aggregate name")
    loc = sc.loc()
    return Atom(sc.take_word(), loc=loc), depth


def _order_postfix(sc: _Scanner, depth: int) -> tuple[OrderExpr, int]:
    expr, level = _order_primary(sc, depth)
    while True:
        if sc.try_punct("?"):
            expr = Opt(expr)
        elif sc.try_punct("*"):
            expr = Star(expr)
        elif sc.try_punct("+"):
            expr = Plus(expr)
        else:
            return expr, level
        level += 1
        if level > MAX_ORDER_DEPTH:
            sc.error(f"ORDER nests ?, * and + operators and parentheses deeper than "
                     f"{MAX_ORDER_DEPTH} levels", sc.loc(sc.pos - 1))


def _order_seq(sc: _Scanner, depth: int) -> tuple[OrderExpr, int]:
    parts, levels = zip(*_separated(sc, lambda: _order_postfix(sc, depth)))
    return (parts[0] if len(parts) == 1 else Seq(parts)), max(levels)


def _order_alt(sc: _Scanner, depth: int) -> tuple[OrderExpr, int]:
    parts, levels = zip(*_separated(sc, lambda: _order_seq(sc, depth), "|"))
    return (parts[0] if len(parts) == 1 else Alt(parts)), max(levels)


def _order_expr(sc: _Scanner) -> OrderExpr:
    return _order_alt(sc, 0)[0]


# ---------------------------------------------------------------------------
# Rule files (.crysl / .mcsl)
# ---------------------------------------------------------------------------


def _at_section(sc: _Scanner) -> bool:
    return sc.peek_word() in RESERVED_WORDS


def _section(sc: _Scanner, keyword: str, item) -> tuple:
    """The items of an optional trailing section, each ended by ';'."""
    items = []
    if sc.try_word(keyword):
        while not sc.eof() and not _at_section(sc):
            items.append(item())
            sc.expect_punct(";")
    return tuple(items)


def _parse_rule(source: SourceFile, abstract: bool) -> CrySLSpec:
    sc = _Scanner(source.text, source.path)

    spec_loc = sc.loc()
    if abstract:
        sc.try_word("ABSTRACT")  # optional marker, not recorded in the AST
    if not sc.try_word("SPEC"):
        sc.error("missing SPEC header", spec_loc if sc.eof() else None)
    class_name = _qualified_ident(sc, "class name")
    params: tuple[str, ...] = ()
    if abstract and sc.try_punct("<"):
        params = _separated(sc, lambda: sc.take_word("type parameter"))
        sc.expect_punct(">")

    sc.expect_word("OBJECTS")
    objects: list[ObjectDecl] = []
    while not sc.eof() and not _at_section(sc):
        loc = sc.loc()
        type_name = _type_ref(sc, abstract, params)
        var_name = sc.take_word("object name")
        sc.expect_punct(";")
        objects.append(ObjectDecl(type_name, var_name, loc=loc))

    sc.expect_word("EVENTS")
    events: list[EventDecl] = []
    aggregates: list[AggregateDecl] = []
    while not sc.eof() and not _at_section(sc):
        if sc.peek_word() is None:
            sc.error("expected event or aggregate declaration")
        # Lookahead past the name decides between 'label :' and 'name :='.
        loc, start = sc.loc(), sc.pos
        name = sc.take_word("declaration name")
        if sc.try_punct(":="):
            alternatives = _separated(sc, lambda: sc.take_word("event label"), "|")
            aggregates.append(AggregateDecl(name, alternatives, loc=loc))
        else:
            sc.pos = start
            events.append(_event_decl(sc, abstract, params))
        sc.expect_punct(";")

    order_loc = sc.loc()
    sc.expect_word("ORDER")
    order = _order_expr(sc)
    constraints = _section(sc, "CONSTRAINTS", lambda: _constraint(sc, abstract))
    requires = _section(sc, "REQUIRES", lambda: _predicate(sc))
    ensures = _section(sc, "ENSURES", lambda: _predicate(sc))
    if not sc.eof():
        sc.error(f"unexpected text after rule: {sc._describe_next()}")

    spec_type, extra = (AbstractSpec, {"type_params": params}) if abstract else (CrySLSpec, {})
    return spec_type(
        class_name=class_name,
        objects=tuple(objects),
        events=tuple(events),
        aggregates=tuple(aggregates),
        order=order,
        constraints=constraints,
        requires=requires,
        ensures=ensures,
        source_path=source.path,
        loc=spec_loc,
        order_loc=order_loc,
        **extra,
    )


def parse_crysl(source: SourceFile) -> CrySLSpec:
    """Parse one concrete rule. Raises :class:`ParseError` on bad syntax."""
    if source.language != "crysl":
        raise ValueError(f"{source.path}: expected a .crysl source, got {source.language}")
    return _parse_rule(source, abstract=False)


def parse_abstract(source: SourceFile) -> AbstractSpec:
    """Parse one abstract rule; accepts every concrete rule as well."""
    if source.language != "abstract":
        raise ValueError(f"{source.path}: expected a .mcsl source, got {source.language}")
    spec = _parse_rule(source, abstract=True)
    assert isinstance(spec, AbstractSpec)
    return spec


# ---------------------------------------------------------------------------
# Refinement files (.ref)
# ---------------------------------------------------------------------------


def _refinement_op(sc: _Scanner) -> RefinementOp:
    """One operation of a refinement body, without its closing ';'."""
    loc = sc.loc()
    word = sc.take_word("refinement operation")
    if word == "define":
        sc.try_punct("$")  # the sigil is optional on the defining side
        name = sc.take_word("meta-variable name")
        sc.expect_punct("=")
        return DefineLiteralSet(name, _literal_set(sc), loc=loc)
    if word == "add":
        kind = sc.peek_word()
        if kind == "event":
            sc.take_word()
            event = _event_decl(sc, abstract=False)
            aggregate = sc.take_word("aggregate name") if sc.try_word("to") else None
            return AddEvent(event, aggregate, loc=loc)
        if kind == "constraint":
            sc.take_word()
            return AddConstraint(_constraint(sc, abstract=True), loc=loc)
        if kind in ("ensures", "requires"):
            sc.take_word()
            return (AddEnsures if kind == "ensures" else AddRequires)(_predicate(sc), loc=loc)
        sc.error(f"unknown op keyword 'add {kind}'", loc)
    if word == "remove":
        kind = sc.peek_word()
        if kind == "event":
            sc.take_word()
            return RemoveEvent(sc.take_word("event label"), loc=loc)
        if kind == "constraint":
            sc.take_word()
            return RemoveConstraint(_constraint(sc, abstract=True), loc=loc)
        if kind in ("ensures", "requires"):
            sc.take_word()
            return RemovePredicate(kind, sc.take_word("predicate name"), loc=loc)
        sc.error(f"unknown op keyword 'remove {kind}'", loc)
    if word == "replace":
        if sc.peek_word() != "order":
            sc.error(f"unknown op keyword 'replace {sc.peek_word()}'", loc)
        sc.take_word()
        return ReplaceOrder(_order_expr(sc), loc=loc)
    sc.error(f"unknown op keyword '{word}'", loc)


def parse_refinement(source: SourceFile) -> list[RefinementSpec]:
    """Parse a refinement file; a single file may hold several refinements."""
    if source.language != "refinement":
        raise ValueError(f"{source.path}: expected a .ref source, got {source.language}")
    sc = _Scanner(source.text, source.path)
    refinements: list[RefinementSpec] = []
    while not sc.eof():
        loc = sc.loc()
        sc.expect_word("SPEC")
        name = sc.take_word("refinement name")
        sc.expect_word("REFINES")
        base_name = _qualified_ident(sc, "base rule name")
        type_args: tuple[str, ...] = ()
        if sc.try_punct("<"):
            type_args = _separated(sc, lambda: _qualified_ident(sc, "type argument"))
            sc.expect_punct(">")
        ops: list[RefinementOp] = []
        if not sc.try_punct(";"):
            sc.expect_punct("{")
            while not sc.try_punct("}"):
                if sc.eof():
                    sc.error("unterminated refinement body")
                ops.append(_refinement_op(sc))
                sc.expect_punct(";")
        refinements.append(
            RefinementSpec(
                name=name,
                base_name=base_name,
                type_args=type_args,
                ops=tuple(ops),
                source_path=source.path,
                loc=loc,
            )
        )
    return refinements


# ---------------------------------------------------------------------------
# Configuration files (.conf)
# ---------------------------------------------------------------------------


def _config_path(sc: _Scanner) -> str:
    loc = sc.loc()
    raw = sc.take(_PATH_RE, "path")
    if ".." in Path(raw).parts and not Path(raw).is_absolute():
        sc.error(f"parent-directory escape in path '{raw}'", loc)
    return raw


def parse_config(source: SourceFile) -> BuildConfig:
    """Parse one build configuration.

    ``src`` and ``out`` resolve relative to the configuration file's
    directory; load paths resolve relative to ``src``. Load order is
    preserved exactly as written.
    """
    if source.language != "config":
        raise ValueError(f"{source.path}: expected a .conf source, got {source.language}")
    sc = _Scanner(source.text, source.path)
    config_loc = sc.loc()
    sc.expect_word("config")
    name = sc.take_word("configuration name")
    sc.expect_punct("{")

    paths: dict[str, str] = {}  # the 'src' and 'out' fields
    loads: list[LoadDirective] = []
    while not sc.try_punct("}"):
        if sc.eof():
            sc.error("unterminated configuration block")
        loc = sc.loc()
        word = sc.take_word("configuration entry")
        if word in ("src", "out"):
            sc.expect_punct("=")
            value = _config_path(sc)
            if word in paths:
                sc.error(f"duplicate field '{word}'", loc)
            paths[word] = value
        elif word == "load":
            kind = sc.take_word("load kind")
            if kind not in ("spec", "refinement"):
                sc.error(f"expected 'spec' or 'refinement', found '{kind}'", loc)
            loads.append(LoadDirective(kind, _config_path(sc), loc=loc))
        else:
            sc.error(f"unknown configuration entry '{word}'", loc)
        sc.expect_punct(";")

    if not sc.eof():
        loc = sc.loc()
        if sc.try_word("config"):
            if sc.take_word("configuration name") == name:
                sc.error(f"duplicate config name '{name}'", loc)
            sc.error("multiple configurations per file are not supported", loc)
        sc.error(f"unexpected text after configuration: {sc._describe_next()}", loc)

    for field in ("src", "out"):
        if field not in paths:
            sc.error(f"missing required field '{field}'", config_loc)
    if not any(load.kind == "spec" for load in loads):
        sc.error("no specification sources (need at least one 'load spec')", config_loc)

    return BuildConfig(
        name=name,
        src=paths["src"],
        out=paths["out"],
        loads=tuple(loads),
        source_path=source.path,
        loc=config_loc,
    )
