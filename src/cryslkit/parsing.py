"""Parsers for the four surface languages.

Dispatch is by file extension: ``.crysl`` rules, ``.mcsl`` abstract rules,
``.ref`` refinement files, ``.conf`` build configurations. The grammar
reference in ``docs/grammar.md`` is normative for this toolchain; all four
languages share ``//`` end-of-line comments, double-quoted string literals and
decimal integer literals.

Both rule grammars yield a :class:`~cryslkit.model.CrySLSpec`. The abstract
grammar is a strict superset of the ``.crysl`` one: any ``.crysl`` text also
parses as ``.mcsl``, to an equal rule without variation points.

Each file is tokenised once, by one ``split`` on a master regex: a token is
an identifier, an integer, a whole string literal (one left open runs to the
end of its line) or any other single character, and the whitespace and
comments before it are dropped on the way. Its repeats are possessive, so
``re`` keeps no backtrack point per character. The recursive-descent
functions walk the token list by index and return the index after what they
parsed. The pairs ``:=``, ``=>`` and ``[]`` are two tokens that must be
adjacent in the text. A ``.conf`` path is the one context-sensitive token: it
runs to whitespace, ``;``, ``{``, ``}`` or a NUL, so it can take in a ``//``. A
configuration is therefore tokenised as the walker reads it, and reading goes
on from the end of each path.

Parsers are pure functions of the input text. The first syntax error aborts
the file and is raised as :class:`ParseError`, which carries a diagnostic
pointing into the input; a location is worked out from a token's offset.
"""

from __future__ import annotations

import errno
import os
import re
from bisect import bisect_right
from itertools import accumulate, islice
from pathlib import Path
from stat import S_ISDIR, S_ISREG
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
_STRING_ELEMENT = r'(?:[^"\\\n]|\\.)'
_STRING_RE = re.compile(rf'"{_STRING_ELEMENT}*"')
# The token pattern of a rule or refinement: the trivia before a token
# (whitespace and // comments), then the token: an identifier, an integer, a
# string literal, a string left open, which runs to the end of its line, any
# other character but a newline, or "" at the end of the text. Trivia always
# matches up to the next token, so nothing backtracks into it, and no token
# spans a line end. Every repeat is possessive (``*+``, ``++``), so ``re``
# keeps no backtrack point per character; none of them ever has to give
# characters back for the rest of the pattern to match.
_TOKEN_RE = re.compile(
    r'([ \t\r\n]*+(?://[^\n]*+[ \t\r\n]*+)*+)'
    rf'([A-Za-z_][A-Za-z0-9_]*+|[0-9]++|"{_STRING_ELEMENT}*+"|"[^\n]*+|.|\Z)'
)
# The same for a configuration, which has no string literals: there a quote
# is a character like any other.
_CONFIG_TOKEN_RE = re.compile(
    r'([ \t\r\n]*+(?://[^\n]*+[ \t\r\n]*+)*+)([A-Za-z_][A-Za-z0-9_]*+|[0-9]++|.|\Z)'
)
_WORD_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_SECTION_END = RESERVED_WORDS | {""}
_PATH_RE = re.compile(r"[^\s;{}\0]+")
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
    not decode. An extension of no rule language, like a source passed to
    the parser of another language, is a ``ValueError(path, message)``.
    """

    path: str
    text: str
    language: str

    @classmethod
    def from_path(cls, path: str | Path) -> "SourceFile":
        """Read a file named by outside input, its path first put in normal
        form (``./a//b.mcsl`` reads as ``a/b.mcsl``)."""
        return read_source(str(Path(path)))

    @classmethod
    def for_text(cls, text: str, language: str, path: str = "<memory>") -> "SourceFile":
        if language not in LANGUAGE_BY_EXTENSION.values():
            raise ValueError(f"unknown language tag '{language}'")
        return cls(path, text, language)


def read_source(path: str) -> SourceFile:
    """Read the file at ``path``, a path in normal form, as a
    :class:`SourceFile`: one binary read, a strict UTF-8 decode that skips a
    leading byte-order mark and the newline translation of a text-mode read
    (``\\r\\n`` and a lone ``\\r`` become ``\\n``)."""
    suffix = _suffix(path[path.rfind("/") + 1:])
    language = LANGUAGE_BY_EXTENSION.get(suffix)
    if language is None:
        raise ValueError(path, f"unknown rule-file extension '{suffix}'")
    with open(path, "rb", buffering=0) as file:
        data = file.read()
    if data.startswith(b"\xef\xbb\xbf"):  # a UTF-8 byte-order mark, skipped
        data = data[3:]
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        # Decode again, keeping undecodable bytes, to locate the first one
        # in the text the parsers would have seen.
        text = _universal_newlines(data.decode("utf-8", "surrogateescape"))
        at, message = undecodable_byte(text)
        line_start = text.rfind("\n", 0, at)
        raise ParseError(Loc(path, text.count("\n", 0, at) + 1, at - line_start), message) from None
    return SourceFile(path, _universal_newlines(text), language)


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


# The errors for which Path.is_file() and Path.is_dir() answer False rather
# than raise: the path, or a symlink's target, is not there to stat.
_NOT_THERE = frozenset({errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP})


def file_mode(path: str) -> int:
    """The ``st_mode`` of what ``path`` names, symlinks followed, or 0 where
    ``Path.is_file()`` answers False for want of a file."""
    try:
        return os.stat(path).st_mode
    except OSError as exc:
        if exc.errno not in _NOT_THERE:
            raise
    except ValueError:  # a NUL in the path
        pass
    return 0


def rule_files(path: str | Path, suffixes: tuple[str, ...]) -> list[str] | None:
    """A file itself, or the files with one of ``suffixes`` in a directory and
    its direct subdirectories, sorted; each a path string in normal form.
    None for a path that is neither, symlinks followed: a missing path, a
    dangling or looping symlink, a FIFO. The path is stat-ed once, each
    directory is listed once, and only a symlink's entry costs a stat."""
    path = str(path if isinstance(path, Path) else Path(path))  # a Path is in normal form
    mode = file_mode(path)
    if S_ISREG(mode):
        return [path]
    if not S_ISDIR(mode):
        return None
    files: list[str] = []
    subdirectories = []
    prefix = "" if path == "." else os.path.join(path, "")
    with os.scandir(path) as entries:
        for entry in entries:
            is_file, is_dir = _entry_kind(entry)
            if is_file and _suffix(entry.name) in suffixes:
                files.append(prefix + entry.name)
            elif is_dir:
                subdirectories.append(prefix + entry.name)
    for subdirectory in subdirectories:
        with os.scandir(subdirectory) as entries:
            files += [f"{subdirectory}/{entry.name}" for entry in entries
                      if _entry_kind(entry)[0]
                      and _suffix(entry.name) in suffixes]
    files.sort()
    return files


def _entry_kind(entry: os.DirEntry) -> tuple[bool, bool]:
    """Whether a directory entry is a file and whether it is a directory,
    symlinks followed. A symlink is stat-ed as ``Path`` does it, so a
    dangling one or a loop is neither."""
    if entry.is_symlink():
        mode = file_mode(entry.path)
        return S_ISREG(mode), S_ISDIR(mode)
    return entry.is_file(), entry.is_dir()


def _suffix(name: str) -> str:
    """``Path(name).suffix``: from the last dot, unless the name starts or
    ends with that dot."""
    dot = name.rfind(".")
    return name[dot:] if 0 < dot < len(name) - 1 else ""


def read_rule(path: str) -> CrySLSpec:
    """Parse a rule file, its path in normal form as :func:`rule_files`
    gives it, by its language: ``.crysl`` as a CrySL rule, any other
    extension as ``.mcsl``; an extension of the wrong language is a
    ``ValueError``."""
    source = read_source(path)
    if source.language == "crysl":
        return parse_crysl(source)
    return parse_abstract(source)


def _line_starts(text: str) -> list[int]:
    """The offset of each line's first character."""
    return list(accumulate((len(line) + 1 for line in text.split("\n")), initial=0))


class _Tokens:
    """One file's tokens: ``t[i]`` is the text of token ``i`` and ``at[i]``
    its offset. The last token is "", at the end of the text.

    A location is computed only when asked for, from the offsets of the
    line starts.
    """

    __slots__ = ("t", "at", "text", "path", "_line_starts")

    def __init__(self, source: SourceFile):
        self.text, self.path = source.text, source.path
        parts = _TOKEN_RE.split(source.text)  # ("", trivia, token) per token, then ""
        self.t = parts[2::3]
        self.at = list(islice(accumulate(map(len, parts), initial=0), 2, None, 3))
        self._line_starts = _line_starts(source.text)

    def loc(self, i: int) -> Loc:
        """Where token ``i`` is: the file, and 1-based line and column."""
        at = self.at[i]
        line = bisect_right(self._line_starts, at)
        return Loc(self.path, line, at - self._line_starts[line - 1] + 1)

    def fail(self, i: int, message: str) -> NoReturn:
        raise ParseError(self.loc(i), message)

    def found(self, i: int) -> str:
        """Token ``i`` for a message: its first character, or end of file."""
        return f"'{self.t[i][0]}'" if self.t[i] else "end of file"

    def pair(self, i: int, first: str, second: str) -> bool:
        """Whether tokens ``i`` and ``i + 1`` are ``first`` and ``second``
        with nothing between them."""
        t = self.t
        return t[i] == first and t[i + 1] == second and self.at[i + 1] == self.at[i] + 1


class _Read(list):
    """Token texts read from ``matches`` only when indexed past their end;
    ``offsets`` holds each one's offset."""

    __slots__ = ("matches", "offsets")

    def __getitem__(self, i: int):
        while i >= len(self):
            match = next(self.matches)
            self.append(match.group(2))
            self.offsets.append(match.start(2))
        return list.__getitem__(self, i)


class _Offsets:
    """The offsets of a :class:`_Read`'s tokens, read as far as asked for.
    The tokens do not refer back to this view, so the two make no cycle."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: _Read):
        self.tokens = tokens

    def __getitem__(self, i: int) -> int:
        self.tokens[i]  # reads the tokens up to i
        return self.tokens.offsets[i]


class _ConfigTokens(_Tokens):
    """A configuration's tokens, read from the text only as far as the walker
    has asked for them. ``resume`` goes on reading after a path, which may
    have taken in what a full tokenisation would have read as a comment;
    text inside a path after its first token is never tokenised, so no
    character is tokenised twice."""

    __slots__ = ()

    def __init__(self, source: SourceFile):
        self.text, self.path = source.text, source.path
        self.t = _Read()
        self.t.offsets = []
        self.at = _Offsets(self.t)
        self._line_starts = _line_starts(source.text)
        self.resume(0)

    def resume(self, end: int) -> None:
        """Read the next token from offset ``end`` on."""
        self.t.matches = _CONFIG_TOKEN_RE.finditer(self.text, end)


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
                     constraints, requires, ensures, loc=w.loc(0), order_loc=order_loc,
                     type_params=params)


def parse_crysl(source: SourceFile) -> CrySLSpec:
    """Parse one CrySL rule. Raises :class:`ParseError` on bad syntax."""
    if source.language != "crysl":
        raise ValueError(source.path, f"expected a .crysl source, got {source.language}")
    return _parse_rule(source, abstract=False)


def parse_abstract(source: SourceFile) -> CrySLSpec:
    """Parse one abstract rule; accepts every ``.crysl`` rule as well."""
    if source.language != "abstract":
        raise ValueError(source.path, f"expected a .mcsl source, got {source.language}")
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
        raise ValueError(source.path, f"expected a .ref source, got {source.language}")
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
                                          loc=w.loc(start)))
    return refinements


# ---------------------------------------------------------------------------
# Configuration files (.conf)
# ---------------------------------------------------------------------------


def _config_path(w: _ConfigTokens, i: int) -> tuple[str, int]:
    """The path that starts at token ``i``: any text up to whitespace, ';',
    '{', '}' or a NUL, which no file system takes in a name, so it may end
    inside a token."""
    match = _PATH_RE.match(w.text, w.at[i])
    if not match:
        w.fail(i, "expected path")
    raw = match.group()
    if ".." in raw and ".." in Path(raw).parts and not Path(raw).is_absolute():
        w.fail(i, f"parent-directory escape in path '{raw}'")
    w.resume(match.end())
    return raw, i + 1


def parse_config(source: SourceFile) -> BuildConfig:
    """Parse one build configuration.

    ``src`` and ``out`` resolve relative to the configuration file's
    directory; load paths resolve relative to ``src``. Load order is
    preserved exactly as written.
    """
    if source.language != "config":
        raise ValueError(source.path, f"expected a .conf source, got {source.language}")
    w = _ConfigTokens(source)
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

    return BuildConfig(name, paths["src"], paths["out"], tuple(loads), loc=w.loc(0))
