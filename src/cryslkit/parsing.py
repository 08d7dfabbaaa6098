"""Parsers for the four surface languages.

Dispatch is by file extension: ``.crysl`` rules, ``.mcsl`` abstract rules,
``.ref`` refinement files, ``.conf`` build configurations. The grammar
reference in ``docs/grammar.md`` is normative for this toolchain; all four
languages share ``//`` end-of-line comments, double-quoted string literals and
decimal integer literals.

Both rule grammars yield a :class:`~cryslkit.model.CrySLSpec`. The abstract
grammar is a strict superset of the ``.crysl`` one: any ``.crysl`` text also
parses as ``.mcsl``, to an equal rule without variation points.

Each file is tokenised once, by one ``findall`` of a master regex: a token is
an identifier, an integer, a whole string literal (one left open runs to the
end of its line) or any other single character, and the whitespace and
comments before it are dropped on the way. The recursive-descent functions
walk the token list by index and return the index after what they parsed.
The pairs ``:=``, ``=>`` and ``[]`` are two tokens that must be adjacent in
the text. A ``.conf`` path is the one context-sensitive token: it runs to
whitespace, ``;``, ``{`` or ``}``, so it can take in a ``//``, and the text
after it is tokenised again until the new tokens line up with the old.

Parsers are pure functions of the input text. The first syntax error aborts
the file and is raised as :class:`ParseError`, which carries a diagnostic
pointing into the input; a location is worked out from a token's offset.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, chain
from pathlib import Path
from typing import NoReturn

from .diagnostics import Loc, LocatedError, Record
from .model import (
    AddConstraint,
    AddEvent,
    AddPredicate,
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

# A string element is one character other than a quote, backslash or
# newline, or a backslash and the character after it. Elements are one
# character wide and start differently, so a failed match takes linear time
# and cannot backtrack an escaped quote into a closing one.
_STRING = r'"(?:[^"\\\n]|\\.)*"'
_STRING_RE = re.compile(_STRING)
# The trivia before a token (whitespace and // comments) and the token: an
# identifier, an integer, a string literal, a string left open, which runs to
# the end of its line, any other character but a newline, or "" at the end of
# the text. Trivia always matches up to the next token, so nothing backtracks
# into it, and no token spans a line end. A configuration has no string
# literals, so there a quote is a character like any other.
_TRIVIA = r"([ \t\r\n]*(?://[^\n]*[ \t\r\n]*)*)"
_TOKEN_RE = re.compile(rf'{_TRIVIA}([A-Za-z_][A-Za-z0-9_]*|[0-9]+|{_STRING}|"[^\n]*|.|\Z)')
_CONFIG_TOKEN_RE = re.compile(rf"{_TRIVIA}([A-Za-z_][A-Za-z0-9_]*|[0-9]+|.|\Z)")
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_SECTION_END = RESERVED_WORDS | {""}
_PATH_RE = re.compile(r"[^\s;{}]+")
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


def read_rule(path: str | Path) -> CrySLSpec:
    """Parse a rule file by its language: ``.crysl`` as a CrySL rule, any other
    extension as ``.mcsl``; an extension of the wrong language is a
    ``ValueError``."""
    source = SourceFile.from_path(path)
    if source.language == "crysl":
        return parse_crysl(source)
    return parse_abstract(source)


class _Tokens:
    """One file's tokens: ``t[i]`` is the text of token ``i`` and ``at[i]``
    its offset. The last token is "", at the end of the text.

    A location is computed only when asked for, from the offsets of the
    line starts.
    """

    __slots__ = ("t", "at", "text", "path", "_line_starts")

    def __init__(self, source: SourceFile, pattern: re.Pattern = _TOKEN_RE):
        self.text, self.path = source.text, source.path
        pairs = pattern.findall(source.text)  # (trivia, token)
        self.t = [token for _, token in pairs]
        self.at = list(accumulate(map(len, chain.from_iterable(pairs))))[::2]
        lines = source.text.split("\n")
        self._line_starts = list(accumulate((len(line) + 1 for line in lines), initial=0))

    def loc(self, i: int) -> Loc:
        """1-based line and column of token ``i``."""
        at = self.at[i]
        line = bisect_right(self._line_starts, at)
        return Loc(line, at - self._line_starts[line - 1] + 1)

    def fail(self, i: int, message: str) -> NoReturn:
        raise ParseError(self.path, self.loc(i), message)

    def found(self, i: int) -> str:
        """Token ``i`` for a message: its first character, or end of file."""
        return f"'{self.t[i][0]}'" if self.t[i] else "end of file"

    def pair(self, i: int, first: str, second: str) -> bool:
        """Whether tokens ``i`` and ``i + 1`` are ``first`` and ``second``
        with nothing between them."""
        t = self.t
        return t[i] == first and t[i + 1] == second and self.at[i + 1] == self.at[i] + 1

    def resume(self, i: int, end: int) -> None:
        """Make token ``i`` the first one after offset ``end``, which lies in
        or after token ``i - 1``, in a configuration. The text from ``end`` is
        tokenised again up to the first token that starts where an old one
        does: the token at an offset does not depend on the text before it,
        so from there on the old tokens stand."""
        t, at = self.t, self.at
        j, tokens, offsets = i, [], []
        for match in _CONFIG_TOKEN_RE.finditer(self.text, end):
            while at[j] < match.start(2):
                j += 1
            if at[j] == match.start(2):
                break
            tokens.append(match.group(2))
            offsets.append(match.start(2))
        t[i:j], at[i:j] = tokens, offsets


# ---------------------------------------------------------------------------
# Shared pieces
#
# Each function takes the tokens and the index of its first token, and
# returns what it parsed with the index after it.
# ---------------------------------------------------------------------------


def _word(w: _Tokens, i: int, what: str) -> tuple[str, int]:
    if w.t[i][:1] not in _WORD_START:
        w.fail(i, f"expected {what}")
    return w.t[i], i + 1


def _expect(w: _Tokens, i: int, token: str) -> int:
    """The index after token ``i``, which must be ``token``."""
    found = w.t[i]
    if found != token:
        if not (token[0] in _WORD_START and found[:1] in _WORD_START):
            found = w.found(i)  # only a word in place of a word is named in full
        w.fail(i, f"expected '{token}', found {found}")
    return i + 1


def _separated(w: _Tokens, i: int, item, separator: str = ",") -> tuple[tuple, int]:
    """One or more ``item(w, i)`` results with ``separator`` between them."""
    value, i = item(w, i)
    items = [value]
    while w.t[i] == separator:
        value, i = item(w, i + 1)
        items.append(value)
    return tuple(items), i


def _words(w: _Tokens, i: int, what: str, separator: str = ",",
           then: str | None = None) -> tuple[tuple[str, ...], int]:
    """One or more identifiers with ``separator`` between them; ``then``
    names those after the first, when they differ."""
    t, start = w.t, i
    while True:
        if t[i][:1] not in _WORD_START:
            w.fail(i, f"expected {then if then and i > start else what}")
        if t[i + 1] != separator:
            return tuple(t[start:i + 1:2]), i + 1
        i += 2


def _qualified_ident(w: _Tokens, i: int, what: str = "name") -> tuple[str, int]:
    parts, i = _words(w, i, what, ".", "name segment")
    return ".".join(parts), i


def _placeholder(w: _Tokens, i: int, type_params: tuple[str, ...]) -> tuple[str, int]:
    param, j = _word(w, _expect(w, i, "<"), "type parameter")
    j = _expect(w, j, ">")
    if param not in type_params:
        w.fail(i, f"type parameter '{param}' is not declared")
    return f"<{param}>", j


def _type_ref(w: _Tokens, i: int, abstract: bool,
              type_params: tuple[str, ...] = ()) -> tuple[str, int]:
    if abstract and w.t[i] == "<":
        base, i = _placeholder(w, i, type_params)
    else:
        base, i = _qualified_ident(w, i, "type name")
    while w.pair(i, "[", "]"):
        base += "[]"
        i += 2
    return base, i


def _literal(w: _Tokens, i: int):
    token = w.t[i]
    if token[:1] == '"':
        if not _STRING_RE.fullmatch(token):
            w.fail(i, "unterminated string literal")
        return (_ESCAPE_RE.sub(r"\1", token[1:-1]) if "\\" in token else token[1:-1]), i + 1
    if token[:1].isdigit():
        if token[0] not in "0123456789":
            w.fail(i, "expected integer literal")
        try:
            return int(token), i + 1
        except ValueError:  # more digits than sys.get_int_max_str_digits(), 4300 by default
            w.fail(i, f"integer literal of {len(token)} digits is too long")
    w.fail(i, "expected string or integer literal")


def _literal_set(w: _Tokens, i: int) -> tuple[LiteralSet, int]:
    values, i = _separated(w, _expect(w, i, "{"), _literal)
    return LiteralSet(frozenset(values)), _expect(w, i, "}")


def _set_expr(w: _Tokens, i: int, abstract: bool):
    if w.t[i] == "$":
        if not abstract:
            w.fail(i, "meta-variables are only allowed in abstract rules")
        name, i = _word(w, i + 1, "meta-variable name")
        return MetaVarRef(name), i
    return _literal_set(w, i)


def _membership(w: _Tokens, i: int, abstract: bool) -> tuple[Membership, int]:
    var, j = _word(w, i, "variable")
    values, j = _set_expr(w, _expect(w, j, "in"), abstract)
    return Membership(var, values, loc=w.loc(i)), j


def _constraint(w: _Tokens, i: int, abstract: bool) -> tuple[ConstraintExpr, int]:
    lhs, i = _membership(w, i, abstract)
    if w.pair(i, "=", ">"):
        rhs, i = _membership(w, i + 2, abstract)
        return Implication(lhs, rhs, loc=lhs.loc), i
    return lhs, i


def _predicate(w: _Tokens, i: int) -> tuple[PredicateRef, int]:
    name, j = _word(w, i, "predicate name")
    args, j = _words(w, _expect(w, j, "["), "predicate argument")
    return PredicateRef(name, args, loc=w.loc(i)), _expect(w, j, "]")


def _param(w: _Tokens, i: int) -> tuple[ParamRef, int]:
    token = w.t[i]
    if token[:1] == '"' or token[:1].isdigit():
        value, i = _literal(w, i)
        return LiteralArg(value), i
    word, i = _word(w, i, "parameter")
    return (Wildcard() if word == "_" else VarRef(word)), i


def _event_decl(w: _Tokens, i: int, abstract: bool,
                type_params: tuple[str, ...] = ()) -> tuple[EventDecl, int]:
    t = w.t
    label, j = _word(w, i, "event label")
    j = _expect(w, j, ":")
    return_binding = None
    if abstract and t[j] == "<":
        method, j = _placeholder(w, j, type_params)
    else:
        method, j = _word(w, j, "method name")
        if t[j] == "=":
            return_binding = method
            if abstract and t[j + 1] == "<":
                method, j = _placeholder(w, j + 1, type_params)
            else:
                method, j = _word(w, j + 1, "method name")
    j = _expect(w, j, "(")
    params: tuple[ParamRef, ...] = ()
    if t[j] != ")":
        params, j = _separated(w, j, _param)
    return EventDecl(label, return_binding, method, params, loc=w.loc(i)), _expect(w, j, ")")


# ---------------------------------------------------------------------------
# Order expressions
# ---------------------------------------------------------------------------


# Deepest nesting accepted in an ORDER expression, counting parentheses and
# the ?, * and + operators on the way to each atom; deeper input would exhaust
# the recursion of this parser and of the walks over its tree.
MAX_ORDER_DEPTH = 100

_POSTFIX = {"?": Opt, "*": Star, "+": Plus}


def _order_expr(w: _Tokens, i: int, depth: int = 0) -> tuple[OrderExpr, int, int]:
    """An ORDER expression inside ``depth`` levels of nesting, the deepest
    level inside it, and the index after it."""
    t = w.t
    alternatives, level = [], depth
    while True:
        parts = []
        while True:
            token = t[i]
            if token == "(":
                if depth == MAX_ORDER_DEPTH:
                    w.fail(i, f"ORDER nests parentheses deeper than {MAX_ORDER_DEPTH} levels")
                expr, deepest, i = _order_expr(w, i + 1, depth + 1)
                i = _expect(w, i, ")")
            elif token[:1] in _WORD_START and token not in RESERVED_WORDS:
                expr, deepest = Atom(token, loc=w.loc(i)), depth
                i += 1
            else:
                w.fail(i, "expected event label or aggregate name")
            while t[i] in _POSTFIX:
                expr = _POSTFIX[t[i]](expr)
                deepest += 1
                if deepest > MAX_ORDER_DEPTH:
                    w.fail(i, f"ORDER nests ?, * and + operators and parentheses deeper than "
                              f"{MAX_ORDER_DEPTH} levels")
                i += 1
            parts.append(expr)
            level = max(level, deepest)
            if t[i] != ",":
                break
            i += 1
        alternatives.append(parts[0] if len(parts) == 1 else Seq(tuple(parts)))
        if t[i] != "|":
            expr = alternatives[0] if len(alternatives) == 1 else Alt(tuple(alternatives))
            return expr, level, i
        i += 1


# ---------------------------------------------------------------------------
# Rule files (.crysl / .mcsl)
# ---------------------------------------------------------------------------


def _section(w: _Tokens, i: int, keyword: str, item) -> tuple[tuple, int]:
    """The items of an optional trailing section, each ended by ';'."""
    items = []
    if w.t[i] == keyword:
        i += 1
        while w.t[i] not in _SECTION_END:
            value, i = item(w, i)
            items.append(value)
            i = _expect(w, i, ";")
    return tuple(items), i


def _parse_rule(source: SourceFile, abstract: bool) -> CrySLSpec:
    w = _Tokens(source)
    t = w.t

    i = 1 if abstract and t[0] == "ABSTRACT" else 0  # optional marker, not in the AST
    if t[i] != "SPEC":
        w.fail(i if t[i] else 0, "missing SPEC header")
    class_name, i = _qualified_ident(w, i + 1, "class name")
    params: tuple[str, ...] = ()
    if abstract and t[i] == "<":
        params, i = _words(w, i + 1, "type parameter")
        i = _expect(w, i, ">")

    i = _expect(w, i, "OBJECTS")
    objects: list[ObjectDecl] = []
    while t[i] not in _SECTION_END:
        start = i
        type_name, i = _type_ref(w, i, abstract, params)
        var_name, i = _word(w, i, "object name")
        i = _expect(w, i, ";")
        objects.append(ObjectDecl(type_name, var_name, loc=w.loc(start)))

    i = _expect(w, i, "EVENTS")
    events: list[EventDecl] = []
    aggregates: list[AggregateDecl] = []
    while t[i] not in _SECTION_END:
        if t[i][:1] not in _WORD_START:
            w.fail(i, "expected event or aggregate declaration")
        # Lookahead past the name decides between 'label :' and 'name :='.
        if w.pair(i + 1, ":", "="):
            alternatives, j = _words(w, i + 3, "event label", "|")
            aggregates.append(AggregateDecl(t[i], alternatives, loc=w.loc(i)))
        else:
            event, j = _event_decl(w, i, abstract, params)
            events.append(event)
        i = _expect(w, j, ";")

    order_loc = w.loc(i)
    order, _, i = _order_expr(w, _expect(w, i, "ORDER"))
    constraints, i = _section(w, i, "CONSTRAINTS", lambda w, i: _constraint(w, i, abstract))
    requires, i = _section(w, i, "REQUIRES", _predicate)
    ensures, i = _section(w, i, "ENSURES", _predicate)
    if t[i]:
        w.fail(i, f"unexpected text after rule: {w.found(i)}")

    return CrySLSpec(class_name, tuple(objects), tuple(events), tuple(aggregates), order,
                     constraints, requires, ensures, source_path=source.path, loc=w.loc(0),
                     order_loc=order_loc, type_params=params)


def parse_crysl(source: SourceFile) -> CrySLSpec:
    """Parse one CrySL rule. Raises :class:`ParseError` on bad syntax."""
    if source.language != "crysl":
        raise ValueError(f"{source.path}: expected a .crysl source, got {source.language}")
    return _parse_rule(source, abstract=False)


def parse_abstract(source: SourceFile) -> CrySLSpec:
    """Parse one abstract rule; accepts every ``.crysl`` rule as well."""
    if source.language != "abstract":
        raise ValueError(f"{source.path}: expected a .mcsl source, got {source.language}")
    return _parse_rule(source, abstract=True)


# ---------------------------------------------------------------------------
# Refinement files (.ref)
# ---------------------------------------------------------------------------


def _refinement_op(w: _Tokens, start: int) -> tuple[RefinementOp, int]:
    """One operation of a refinement body, without its closing ';'."""
    t = w.t
    loc = w.loc(start)
    word, i = _word(w, start, "refinement operation")
    kind = t[i] if t[i][:1] in _WORD_START else None
    if word == "define":
        if t[i] == "$":  # the sigil is optional on the defining side
            i += 1
        name, i = _word(w, i, "meta-variable name")
        values, i = _literal_set(w, _expect(w, i, "="))
        return DefineLiteralSet(name, values, loc=loc), i
    if word == "add":
        if kind == "event":
            event, i = _event_decl(w, i + 1, abstract=False)
            aggregate = None
            if t[i] == "to":
                aggregate, i = _word(w, i + 1, "aggregate name")
            return AddEvent(event, aggregate, loc=loc), i
        if kind == "constraint":
            constraint, i = _constraint(w, i + 1, abstract=True)
            return AddConstraint(constraint, loc=loc), i
        if kind in ("ensures", "requires"):
            predicate, i = _predicate(w, i + 1)
            return AddPredicate(kind, predicate, loc=loc), i
        w.fail(start, f"unknown op keyword 'add {kind}'")
    if word == "remove":
        if kind == "event":
            label, i = _word(w, i + 1, "event label")
            return RemoveEvent(label, loc=loc), i
        if kind == "constraint":
            constraint, i = _constraint(w, i + 1, abstract=True)
            return RemoveConstraint(constraint, loc=loc), i
        if kind in ("ensures", "requires"):
            name, i = _word(w, i + 1, "predicate name")
            return RemovePredicate(kind, name, loc=loc), i
        w.fail(start, f"unknown op keyword 'remove {kind}'")
    if word == "replace":
        if kind != "order":
            w.fail(start, f"unknown op keyword 'replace {kind}'")
        order, _, i = _order_expr(w, i + 1)
        return ReplaceOrder(order, loc=loc), i
    w.fail(start, f"unknown op keyword '{word}'")


def parse_refinement(source: SourceFile) -> list[RefinementSpec]:
    """Parse a refinement file; a single file may hold several refinements."""
    if source.language != "refinement":
        raise ValueError(f"{source.path}: expected a .ref source, got {source.language}")
    w = _Tokens(source)
    t = w.t
    i = 0
    refinements: list[RefinementSpec] = []
    while t[i]:
        start = i
        name, i = _word(w, _expect(w, i, "SPEC"), "refinement name")
        base_name, i = _qualified_ident(w, _expect(w, i, "REFINES"), "base rule name")
        type_args: tuple[str, ...] = ()
        if t[i] == "<":
            type_args, i = _separated(w, i + 1,
                                      lambda w, i: _qualified_ident(w, i, "type argument"))
            i = _expect(w, i, ">")
        ops: list[RefinementOp] = []
        if t[i] == ";":
            i += 1
        else:
            i = _expect(w, i, "{")
            while t[i] != "}":
                if not t[i]:
                    w.fail(i, "unterminated refinement body")
                op, i = _refinement_op(w, i)
                ops.append(op)
                i = _expect(w, i, ";")
            i += 1
        refinements.append(RefinementSpec(name, base_name, type_args, tuple(ops),
                                          source_path=source.path, loc=w.loc(start)))
    return refinements


# ---------------------------------------------------------------------------
# Configuration files (.conf)
# ---------------------------------------------------------------------------


def _config_path(w: _Tokens, i: int) -> tuple[str, int]:
    """The path that starts at token ``i``: any text up to whitespace, ';',
    '{' or '}', so it may end inside a token."""
    match = _PATH_RE.match(w.text, w.at[i])
    if not match:
        w.fail(i, "expected path")
    raw = match.group()
    if ".." in raw and ".." in Path(raw).parts and not Path(raw).is_absolute():
        w.fail(i, f"parent-directory escape in path '{raw}'")
    w.resume(i + 1, match.end())
    return raw, i + 1


def parse_config(source: SourceFile) -> BuildConfig:
    """Parse one build configuration.

    ``src`` and ``out`` resolve relative to the configuration file's
    directory; load paths resolve relative to ``src``. Load order is
    preserved exactly as written.
    """
    if source.language != "config":
        raise ValueError(f"{source.path}: expected a .conf source, got {source.language}")
    w = _Tokens(source, _CONFIG_TOKEN_RE)
    t = w.t
    name, i = _word(w, _expect(w, 0, "config"), "configuration name")
    i = _expect(w, i, "{")

    paths: dict[str, str] = {}  # the 'src' and 'out' fields
    loads: list[LoadDirective] = []
    while t[i] != "}":
        if not t[i]:
            w.fail(i, "unterminated configuration block")
        start = i
        word, i = _word(w, i, "configuration entry")
        if word in ("src", "out"):
            value, i = _config_path(w, _expect(w, i, "="))
            if word in paths:
                w.fail(start, f"duplicate field '{word}'")
            paths[word] = value
        elif word == "load":
            kind, i = _word(w, i, "load kind")
            if kind not in ("spec", "refinement"):
                w.fail(start, f"expected 'spec' or 'refinement', found '{kind}'")
            path, i = _config_path(w, i)
            loads.append(LoadDirective(kind, path, loc=w.loc(start)))
        else:
            w.fail(start, f"unknown configuration entry '{word}'")
        i = _expect(w, i, ";")

    i += 1
    if t[i]:
        if t[i] == "config":
            if _word(w, i + 1, "configuration name")[0] == name:
                w.fail(i, f"duplicate config name '{name}'")
            w.fail(i, "multiple configurations per file are not supported")
        w.fail(i, f"unexpected text after configuration: {w.found(i)}")

    for field in ("src", "out"):
        if field not in paths:
            w.fail(0, f"missing required field '{field}'")
    if not any(load.kind == "spec" for load in loads):
        w.fail(0, "no specification sources (need at least one 'load spec')")

    return BuildConfig(name, paths["src"], paths["out"], tuple(loads),
                       source_path=source.path, loc=w.loc(0))
