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
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from .diagnostics import Diagnostic, Loc, Severity
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

SECTION_KEYWORDS = ("OBJECTS", "EVENTS", "ORDER", "CONSTRAINTS", "REQUIRES", "ENSURES")
RESERVED_WORDS = frozenset(SECTION_KEYWORDS) | {"SPEC", "ABSTRACT"}

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"[0-9]+")
_PATH_RE = re.compile(r"[^\s;{}]+")


class ParseError(Exception):
    """A syntax error with a location inside the offending file."""

    def __init__(self, path: str, loc: Loc, message: str):
        super().__init__(f"{path}:{loc.line}:{loc.col}: {message}")
        self.diagnostic = Diagnostic(path, loc.line, loc.col, Severity.ERROR, message)


@dataclass(frozen=True)
class SourceFile:
    """UTF-8 text with a language tag inferred from the file extension."""

    path: str
    text: str
    language: str

    @classmethod
    def from_path(cls, path: str | Path) -> "SourceFile":
        path = Path(path)
        language = LANGUAGE_BY_EXTENSION.get(path.suffix)
        if language is None:
            raise ValueError(f"{path}: unknown rule-file extension '{path.suffix}'")
        text = path.read_text(encoding="utf-8")
        return cls(str(path), text, language)

    @classmethod
    def for_text(cls, text: str, language: str, path: str = "<memory>") -> "SourceFile":
        if language not in LANGUAGE_BY_EXTENSION.values():
            raise ValueError(f"unknown language tag '{language}'")
        return cls(path, text, language)


class _Scanner:
    """Character-level cursor with 1-based line/column tracking.

    All ``take_*`` helpers skip whitespace and ``//`` comments first.
    """

    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str, loc: Loc | None = None) -> NoReturn:
        raise ParseError(self.path, loc or self.loc(), message)

    def _advance(self, count: int) -> None:
        for _ in range(count):
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def skip_trivia(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
            elif self.text.startswith("//", self.pos):
                end = self.text.find("\n", self.pos)
                self._advance((end if end != -1 else len(self.text)) - self.pos)
            else:
                return

    def eof(self) -> bool:
        self.skip_trivia()
        return self.pos >= len(self.text)

    def loc(self) -> Loc:
        self.skip_trivia()
        return Loc(self.line, self.col)

    def peek_char(self) -> str | None:
        self.skip_trivia()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def peek_word(self) -> str | None:
        self.skip_trivia()
        match = _WORD_RE.match(self.text, self.pos)
        return match.group(0) if match else None

    def take_word(self, what: str = "identifier") -> tuple[str, Loc]:
        loc = self.loc()
        match = _WORD_RE.match(self.text, self.pos)
        if not match:
            self.error(f"expected {what}", loc)
        self._advance(len(match.group(0)))
        return match.group(0), loc

    def try_word(self, word: str) -> bool:
        if self.peek_word() == word:
            self._advance(len(word))
            return True
        return False

    def expect_word(self, word: str) -> Loc:
        loc = self.loc()
        if not self.try_word(word):
            found = self.peek_word() or self._describe_next()
            self.error(f"expected '{word}', found {found}", loc)
        return loc

    def try_punct(self, punct: str) -> bool:
        self.skip_trivia()
        if self.text.startswith(punct, self.pos):
            self._advance(len(punct))
            return True
        return False

    def expect_punct(self, punct: str) -> Loc:
        loc = self.loc()
        if not self.try_punct(punct):
            self.error(f"expected '{punct}', found {self._describe_next()}", loc)
        return loc

    def take_int(self) -> tuple[int, Loc]:
        loc = self.loc()
        match = _INT_RE.match(self.text, self.pos)
        if not match:
            self.error("expected integer literal", loc)
        self._advance(len(match.group(0)))
        return int(match.group(0)), loc

    def take_string(self) -> tuple[str, Loc]:
        loc = self.loc()
        if self.peek_char() != '"':
            self.error("expected string literal", loc)
        self._advance(1)
        chars: list[str] = []
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == '"':
                self._advance(1)
                return "".join(chars), loc
            if ch == "\n":
                break
            if ch == "\\" and self.pos + 1 < len(self.text) and self.text[self.pos + 1] in '\\"':
                self._advance(1)
                ch = self.text[self.pos]
            chars.append(ch)
            self._advance(1)
        self.error("unterminated string literal", loc)

    def take_path(self) -> tuple[str, Loc]:
        loc = self.loc()
        match = _PATH_RE.match(self.text, self.pos)
        if not match:
            self.error("expected path", loc)
        self._advance(len(match.group(0)))
        return match.group(0), loc

    def _describe_next(self) -> str:
        self.skip_trivia()
        if self.pos >= len(self.text):
            return "end of file"
        return f"'{self.text[self.pos]}'"


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _qualified_ident(sc: _Scanner, what: str = "name") -> tuple[str, Loc]:
    word, loc = sc.take_word(what)
    parts = [word]
    while sc.try_punct("."):
        parts.append(sc.take_word("name segment")[0])
    return ".".join(parts), loc


def _placeholder(sc: _Scanner, type_params: tuple[str, ...]) -> str:
    loc = sc.expect_punct("<")
    param, _ = sc.take_word("type parameter")
    sc.expect_punct(">")
    if param not in type_params:
        sc.error(f"type parameter '{param}' is not declared", loc)
    return f"<{param}>"


def _type_ref(sc: _Scanner, abstract: bool, type_params: tuple[str, ...] = ()) -> str:
    if abstract and sc.peek_char() == "<":
        base = _placeholder(sc, type_params)
    else:
        base, _ = _qualified_ident(sc, "type name")
    while sc.try_punct("[]"):
        base += "[]"
    return base


def _literal(sc: _Scanner):
    ch = sc.peek_char()
    if ch == '"':
        return sc.take_string()[0]
    if ch is not None and ch.isdigit():
        return sc.take_int()[0]
    sc.error("expected string or integer literal")


def _literal_set(sc: _Scanner) -> LiteralSet:
    sc.expect_punct("{")
    values = [_literal(sc)]
    while sc.try_punct(","):
        values.append(_literal(sc))
    sc.expect_punct("}")
    return LiteralSet(frozenset(values))


def _set_expr(sc: _Scanner, abstract: bool):
    if sc.peek_char() == "$":
        loc = sc.loc()
        if not abstract:
            sc.error("meta-variables are only allowed in abstract rules", loc)
        sc.expect_punct("$")
        name, _ = sc.take_word("meta-variable name")
        return MetaVarRef(name)
    return _literal_set(sc)


def _membership(sc: _Scanner, abstract: bool) -> Membership:
    var, loc = sc.take_word("variable")
    sc.expect_word("in")
    return Membership(var, _set_expr(sc, abstract), loc=loc)


def _constraint(sc: _Scanner, abstract: bool) -> ConstraintExpr:
    lhs = _membership(sc, abstract)
    if sc.try_punct("=>"):
        rhs = _membership(sc, abstract)
        return Implication(lhs, rhs, loc=lhs.loc)
    return lhs


def _predicate(sc: _Scanner) -> PredicateRef:
    name, loc = sc.take_word("predicate name")
    sc.expect_punct("[")
    args = [sc.take_word("predicate argument")[0]]
    while sc.try_punct(","):
        args.append(sc.take_word("predicate argument")[0])
    sc.expect_punct("]")
    return PredicateRef(name, tuple(args), loc=loc)


def _param(sc: _Scanner) -> ParamRef:
    ch = sc.peek_char()
    if ch == '"' or (ch is not None and ch.isdigit()):
        return LiteralArg(_literal(sc))
    word, _ = sc.take_word("parameter")
    if word == "_":
        return Wildcard()
    return VarRef(word)


def _event_decl(sc: _Scanner, abstract: bool, type_params: tuple[str, ...] = ()) -> EventDecl:
    label, loc = sc.take_word("event label")
    sc.expect_punct(":")
    return_binding = None
    if abstract and sc.peek_char() == "<":
        method = _placeholder(sc, type_params)
    else:
        word, _ = sc.take_word("method name")
        if sc.try_punct("="):
            return_binding = word
            if abstract and sc.peek_char() == "<":
                method = _placeholder(sc, type_params)
            else:
                method = sc.take_word("method name")[0]
        else:
            method = word
    sc.expect_punct("(")
    params: list[ParamRef] = []
    if sc.peek_char() != ")":
        params.append(_param(sc))
        while sc.try_punct(","):
            params.append(_param(sc))
    sc.expect_punct(")")
    return EventDecl(label, return_binding, method, tuple(params), loc=loc)


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
                     Loc(sc.line, sc.col - 1))
        inner = _order_alt(sc, depth + 1)
        sc.expect_punct(")")
        return inner
    word = sc.peek_word()
    if word is None or word in RESERVED_WORDS:
        sc.error("expected event label or aggregate name")
    label, loc = sc.take_word()
    return Atom(label, loc=loc), depth


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
                     f"{MAX_ORDER_DEPTH} levels", Loc(sc.line, sc.col - 1))


def _order_seq(sc: _Scanner, depth: int) -> tuple[OrderExpr, int]:
    parsed = [_order_postfix(sc, depth)]
    while sc.try_punct(","):
        parsed.append(_order_postfix(sc, depth))
    parts, levels = zip(*parsed)
    return (parts[0] if len(parts) == 1 else Seq(parts)), max(levels)


def _order_alt(sc: _Scanner, depth: int) -> tuple[OrderExpr, int]:
    parsed = [_order_seq(sc, depth)]
    while sc.try_punct("|"):
        parsed.append(_order_seq(sc, depth))
    parts, levels = zip(*parsed)
    return (parts[0] if len(parts) == 1 else Alt(parts)), max(levels)


def _order_expr(sc: _Scanner) -> OrderExpr:
    return _order_alt(sc, 0)[0]


# ---------------------------------------------------------------------------
# Rule files (.crysl / .mcsl)
# ---------------------------------------------------------------------------


def _at_section(sc: _Scanner) -> bool:
    return sc.peek_word() in RESERVED_WORDS


def _parse_rule(source: SourceFile, abstract: bool) -> CrySLSpec:
    sc = _Scanner(source.text, source.path)

    spec_loc = sc.loc()
    if abstract:
        sc.try_word("ABSTRACT")  # optional marker, not recorded in the AST
    if not sc.try_word("SPEC"):
        sc.error("missing SPEC header", spec_loc if sc.eof() else sc.loc())
    class_name, _ = _qualified_ident(sc, "class name")
    type_params: list[str] = []
    if abstract and sc.peek_char() == "<":
        sc.expect_punct("<")
        type_params.append(sc.take_word("type parameter")[0])
        while sc.try_punct(","):
            type_params.append(sc.take_word("type parameter")[0])
        sc.expect_punct(">")

    params = tuple(type_params)
    sc.expect_word("OBJECTS")
    objects: list[ObjectDecl] = []
    while not sc.eof() and not _at_section(sc):
        loc = sc.loc()
        type_name = _type_ref(sc, abstract, params)
        var_name, _ = sc.take_word("object name")
        sc.expect_punct(";")
        objects.append(ObjectDecl(type_name, var_name, loc=loc))

    sc.expect_word("EVENTS")
    events: list[EventDecl] = []
    aggregates: list[AggregateDecl] = []
    while not sc.eof() and not _at_section(sc):
        if sc.peek_word() is None:
            sc.error("expected event or aggregate declaration")
        # Lookahead past the name decides between 'label :' and 'name :='.
        checkpoint = (sc.pos, sc.line, sc.col)
        name, loc = sc.take_word("declaration name")
        if sc.try_punct(":="):
            alts = [sc.take_word("event label")[0]]
            while sc.try_punct("|"):
                alts.append(sc.take_word("event label")[0])
            sc.expect_punct(";")
            aggregates.append(AggregateDecl(name, tuple(alts), loc=loc))
        else:
            sc.pos, sc.line, sc.col = checkpoint
            event = _event_decl(sc, abstract, params)
            sc.expect_punct(";")
            events.append(event)

    order_loc = sc.expect_word("ORDER")
    order = _order_expr(sc)

    constraints: list[ConstraintExpr] = []
    if sc.try_word("CONSTRAINTS"):
        while not sc.eof() and not _at_section(sc):
            constraints.append(_constraint(sc, abstract))
            sc.expect_punct(";")

    requires: list[PredicateRef] = []
    if sc.try_word("REQUIRES"):
        while not sc.eof() and not _at_section(sc):
            requires.append(_predicate(sc))
            sc.expect_punct(";")

    ensures: list[PredicateRef] = []
    if sc.try_word("ENSURES"):
        while not sc.eof() and not _at_section(sc):
            ensures.append(_predicate(sc))
            sc.expect_punct(";")

    if not sc.eof():
        sc.error(f"unexpected text after rule: {sc._describe_next()}")

    if abstract:
        return AbstractSpec(
            class_name=class_name,
            objects=tuple(objects),
            events=tuple(events),
            aggregates=tuple(aggregates),
            order=order,
            constraints=tuple(constraints),
            requires=tuple(requires),
            ensures=tuple(ensures),
            type_params=tuple(type_params),
            source_path=source.path,
            loc=spec_loc,
            order_loc=order_loc,
        )
    return CrySLSpec(
        class_name=class_name,
        objects=tuple(objects),
        events=tuple(events),
        aggregates=tuple(aggregates),
        order=order,
        constraints=tuple(constraints),
        requires=tuple(requires),
        ensures=tuple(ensures),
        source_path=source.path,
        loc=spec_loc,
        order_loc=order_loc,
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
    word, loc = sc.take_word("refinement operation")
    if word == "define":
        sc.try_punct("$")  # the sigil is optional on the defining side
        name, _ = sc.take_word("meta-variable name")
        sc.expect_punct("=")
        values = _literal_set(sc)
        sc.expect_punct(";")
        return DefineLiteralSet(name, values, loc=loc)
    if word == "add":
        kind = sc.peek_word()
        if kind == "event":
            sc.take_word()
            event = _event_decl(sc, abstract=False)
            aggregate = None
            if sc.try_word("to"):
                aggregate, _ = sc.take_word("aggregate name")
            sc.expect_punct(";")
            return AddEvent(event, aggregate, loc=loc)
        if kind == "constraint":
            sc.take_word()
            constraint = _constraint(sc, abstract=True)
            sc.expect_punct(";")
            return AddConstraint(constraint, loc=loc)
        if kind == "ensures":
            sc.take_word()
            pred = _predicate(sc)
            sc.expect_punct(";")
            return AddEnsures(pred, loc=loc)
        if kind == "requires":
            sc.take_word()
            pred = _predicate(sc)
            sc.expect_punct(";")
            return AddRequires(pred, loc=loc)
        sc.error(f"unknown op keyword 'add {kind}'", loc)
    if word == "remove":
        kind = sc.peek_word()
        if kind == "event":
            sc.take_word()
            label, _ = sc.take_word("event label")
            sc.expect_punct(";")
            return RemoveEvent(label, loc=loc)
        if kind == "constraint":
            sc.take_word()
            constraint = _constraint(sc, abstract=True)
            sc.expect_punct(";")
            return RemoveConstraint(constraint, loc=loc)
        if kind in ("ensures", "requires"):
            sc.take_word()
            name, _ = sc.take_word("predicate name")
            sc.expect_punct(";")
            return RemovePredicate(kind, name, loc=loc)
        sc.error(f"unknown op keyword 'remove {kind}'", loc)
    if word == "replace":
        if sc.peek_word() != "order":
            sc.error(f"unknown op keyword 'replace {sc.peek_word()}'", loc)
        sc.take_word()
        order = _order_expr(sc)
        sc.expect_punct(";")
        return ReplaceOrder(order, loc=loc)
    sc.error(f"unknown op keyword '{word}'", loc)


def parse_refinement(source: SourceFile) -> list[RefinementSpec]:
    """Parse a refinement file; a single file may hold several refinements."""
    if source.language != "refinement":
        raise ValueError(f"{source.path}: expected a .ref source, got {source.language}")
    sc = _Scanner(source.text, source.path)
    refinements: list[RefinementSpec] = []
    while not sc.eof():
        loc = sc.expect_word("SPEC")
        name, _ = sc.take_word("refinement name")
        sc.expect_word("REFINES")
        base_name, _ = _qualified_ident(sc, "base rule name")
        type_args: list[str] = []
        if sc.peek_char() == "<":
            sc.expect_punct("<")
            type_args.append(_qualified_ident(sc, "type argument")[0])
            while sc.try_punct(","):
                type_args.append(_qualified_ident(sc, "type argument")[0])
            sc.expect_punct(">")
        ops: list[RefinementOp] = []
        if not sc.try_punct(";"):
            sc.expect_punct("{")
            while not sc.try_punct("}"):
                if sc.eof():
                    sc.error("unterminated refinement body")
                ops.append(_refinement_op(sc))
        refinements.append(
            RefinementSpec(
                name=name,
                base_name=base_name,
                type_args=tuple(type_args),
                ops=tuple(ops),
                source_path=source.path,
                loc=loc,
            )
        )
    return refinements


# ---------------------------------------------------------------------------
# Configuration files (.conf)
# ---------------------------------------------------------------------------


def _check_config_path(sc: _Scanner, raw: str, loc: Loc) -> str:
    ref = Path(raw)
    if ref.is_absolute():
        return raw
    if ".." in ref.parts:
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
    config_loc = sc.expect_word("config")
    name, _ = sc.take_word("configuration name")
    sc.expect_punct("{")

    src: str | None = None
    out: str | None = None
    loads: list[LoadDirective] = []
    while not sc.try_punct("}"):
        if sc.eof():
            sc.error("unterminated configuration block")
        word, loc = sc.take_word("configuration entry")
        if word in ("src", "out"):
            sc.expect_punct("=")
            raw, ploc = sc.take_path()
            value = _check_config_path(sc, raw, ploc)
            if word == "src":
                if src is not None:
                    sc.error("duplicate field 'src'", loc)
                src = value
            else:
                if out is not None:
                    sc.error("duplicate field 'out'", loc)
                out = value
            sc.expect_punct(";")
        elif word == "load":
            kind, _ = sc.take_word("load kind")
            if kind not in ("spec", "refinement"):
                sc.error(f"expected 'spec' or 'refinement', found '{kind}'", loc)
            raw, ploc = sc.take_path()
            loads.append(LoadDirective(kind, _check_config_path(sc, raw, ploc), loc=loc))
            sc.expect_punct(";")
        else:
            sc.error(f"unknown configuration entry '{word}'", loc)

    if not sc.eof():
        loc = sc.loc()
        if sc.try_word("config"):
            other = sc.take_word("configuration name")[0]
            if other == name:
                sc.error(f"duplicate config name '{name}'", loc)
            sc.error("multiple configurations per file are not supported", loc)
        sc.error(f"unexpected text after configuration: {sc._describe_next()}", loc)

    if src is None:
        sc.error("missing required field 'src'", config_loc)
    if out is None:
        sc.error("missing required field 'out'", config_loc)
    if not any(load.kind == "spec" for load in loads):
        sc.error("no specification sources (need at least one 'load spec')", config_loc)

    return BuildConfig(
        name=name,
        src=src,
        out=out,
        loads=tuple(loads),
        source_path=source.path,
        loc=config_loc,
    )
