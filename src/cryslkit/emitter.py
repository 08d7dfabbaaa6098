"""Canonical rendering of rules, and the output directory of a build.

The canonical form is a bit-exact contract: fixed section order, four-space
indentation, one declaration per line, literal sets sorted by their rendered
text, a single blank line between sections, ``\\n`` newlines and no trailing
whitespace. Re-emitting an unchanged build result reproduces identical bytes,
and ``emit`` then leaves every file as it was.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
import os
import stat
from pathlib import Path

from .diagnostics import Diagnostic, Loc, has_errors, warning_at
from .model import (
    Atom,
    ConstraintExpr,
    CrySLSpec,
    EventDecl,
    Implication,
    Membership,
    MetaVarRef,
    Opt,
    OrderExpr,
    ParamRef,
    Plus,
    PredicateRef,
    Seq,
    SetExpr,
    Star,
    VarRef,
    Wildcard,
    variation_points,
)

_INDENT = "    "

# The names of the files a build wrote, kept in its output root; a name
# without a rule suffix, so no rule-file walker reads it.
MANIFEST = ".cryslkit-manifest.json"

# Operator precedence for parenthesization: alternation < sequence < postfix.
_PREC_ALT = 0
_PREC_SEQ = 1
_PREC_POST = 2


def render_literal(value) -> str:
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    return str(value)


def _render_set(values: SetExpr) -> str:
    if isinstance(values, MetaVarRef):
        return f"${values.name}"
    rendered = sorted(render_literal(v) for v in values.values)
    return "{" + ", ".join(rendered) + "}"


def _render_membership(m: Membership) -> str:
    return f"{m.var} in {_render_set(m.values)}"


def render_constraint(constraint: ConstraintExpr) -> str:
    if isinstance(constraint, Implication):
        return f"{_render_membership(constraint.lhs)} => {_render_membership(constraint.rhs)}"
    return _render_membership(constraint)


def _render_param(param: ParamRef) -> str:
    if isinstance(param, Wildcard):
        return "_"
    if isinstance(param, VarRef):
        return param.name
    return render_literal(param.value)


def _render_event(event: EventDecl) -> str:
    call = f"{event.method_name}({', '.join(_render_param(p) for p in event.params)})"
    if event.return_binding is not None:
        call = f"{event.return_binding} = {call}"
    return f"{event.label} : {call};"


def _render_predicate(pred: PredicateRef) -> str:
    return f"{pred.name}[{', '.join(pred.args)}];"


def render_order(expr: OrderExpr, _prec: int = _PREC_ALT) -> str:
    if isinstance(expr, Atom):
        return expr.label
    if isinstance(expr, (Opt, Star, Plus)):
        suffix = {Opt: "?", Star: "*", Plus: "+"}[type(expr)]
        inner = render_order(expr.child, _PREC_POST)
        return inner + suffix
    if isinstance(expr, Seq):
        text = ", ".join(render_order(p, _PREC_SEQ + 1) for p in expr.parts)
        prec = _PREC_SEQ
    else:
        text = " | ".join(render_order(p, _PREC_ALT + 1) for p in expr.parts)
        prec = _PREC_ALT
    return f"({text})" if prec < _prec else text


def pretty_print(spec: CrySLSpec) -> str:
    """Render a rule in canonical form; variation points are rendered back as
    written, and type parameters make an ``ABSTRACT`` header."""
    header = f"SPEC {spec.class_name}"
    if spec.type_params:
        header = f"ABSTRACT {header}<{', '.join(spec.type_params)}>"

    sections: list[list[str]] = [[header]]

    body = [f"{_INDENT}{obj.type_name} {obj.var_name};" for obj in spec.objects]
    sections.append(["OBJECTS"] + body)

    events = [f"{_INDENT}{_render_event(e)}" for e in spec.events]
    events += [
        f"{_INDENT}{agg.name} := {' | '.join(agg.alternatives)};" for agg in spec.aggregates
    ]
    sections.append(["EVENTS"] + events)

    sections.append(["ORDER", f"{_INDENT}{render_order(spec.order)}"])

    if spec.constraints:
        sections.append(
            ["CONSTRAINTS"] + [f"{_INDENT}{render_constraint(c)};" for c in spec.constraints]
        )
    if spec.requires:
        sections.append(["REQUIRES"] + [f"{_INDENT}{_render_predicate(p)}" for p in spec.requires])
    if spec.ensures:
        sections.append(["ENSURES"] + [f"{_INDENT}{_render_predicate(p)}" for p in spec.ensures])

    return "\n\n".join("\n".join(lines) for lines in sections) + "\n"


def _plain_name(name: str) -> bool:
    """Whether ``name`` names a file directly inside the output root, other
    than the manifest."""
    return (os.path.basename(name) == name and name not in ("", ".", "..", MANIFEST)
            and "\0" not in name)


def _holds(path: str, data: bytes) -> bool:
    """Whether ``path`` is a regular file, not a symlink, holding ``data``."""
    try:
        info = os.lstat(path)
        if not stat.S_ISREG(info.st_mode) or info.st_size != len(data):
            return False
        fd = os.open(path, os.O_RDONLY)
        try:
            return os.read(fd, len(data) + 1) == data
        finally:
            os.close(fd)
    except OSError:
        return False


def _temporary(name: str) -> str:
    """The dot-named file beside ``name`` that new bytes for it go to."""
    return f".{name}.{os.getpid()}.tmp"


def _replace(root: Path, name: str, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``name`` in ``root`` that
    then replaces it, so a reader sees the old file or the new one, and a
    symlink in its place is replaced, not written through."""
    temporary = os.path.join(root, _temporary(name))
    try:
        with open(temporary, "wb") as file:
            file.write(data)
        os.replace(temporary, os.path.join(root, name))
    except BaseException:
        Path(temporary).unlink(missing_ok=True)
        raise


def json_text(value, _newline: str = "\n"):
    """Yield the text of ``value`` as ``json.dumps(value, indent=2)`` lays it
    out: dicts with ``str`` keys in their own order, lists, tuples, strings
    escaped to ASCII by the C escaper, ints, finite floats, bools and None."""
    if isinstance(value, str):
        yield encode_basestring_ascii(value)
    elif isinstance(value, (dict, list, tuple)):
        keyed = isinstance(value, dict)
        opening, closing = "{}" if keyed else "[]"
        inner, separator = _newline + "  ", opening
        for item in value.items() if keyed else value:
            head = separator + inner
            if keyed:
                head += encode_basestring_ascii(item[0]) + ": "
                item = item[1]
            if isinstance(item, str):  # inline: a generator per string costs more than its text
                yield head + encode_basestring_ascii(item)
            else:
                yield head
                yield from json_text(item, inner)
            separator = ","
        yield _newline + closing if value else opening + closing
    elif value is None or isinstance(value, bool):
        yield "null" if value is None else "true" if value else "false"
    else:  # int.__repr__ raises TypeError for what is not a JSON value
        yield (float.__repr__ if isinstance(value, float) else int.__repr__)(value)


def _put_manifest(root: Path, names: list[str]) -> None:
    """Make the manifest in ``root`` list ``names``, unless it already does."""
    data = ("".join(json_text(names)) + "\n").encode("ascii")
    if not _holds(os.path.join(root, MANIFEST), data):
        _replace(root, MANIFEST, data)


def _previous_outputs(manifest: Path, diagnostics: list[Diagnostic] | None) -> list[str]:
    """The file names that the manifest of the previous build lists: none
    for a first build, and none, with a warning, for a manifest that is not
    a JSON list of plain file names."""
    try:
        names = json.loads(manifest.read_bytes())
    except FileNotFoundError:
        return []
    except (OSError, ValueError, RecursionError):
        names = None
    if isinstance(names, list) and all(isinstance(n, str) and _plain_name(n) for n in names):
        return names
    if diagnostics is not None:
        diagnostics.append(warning_at(
            Loc(str(manifest), 1, 1),
            "not a JSON list of plain file names; no earlier output is deleted",
        ))
    return []


def emit(result, out: str | Path, diagnostics: list[Diagnostic] | None = None) -> list[Path]:
    """Bring the output root ``out`` in line with a build result, and return
    the paths of its rules in emission order.

    Every rule is rendered and checked first: a file name that is not a
    plain name, or a rule that still has variation points, is a
    ``ValueError`` before anything on disk changes. Then the root is created
    if absent, each rule file whose bytes differ is replaced, and each file
    that the previous build's manifest lists and this build did not produce
    is deleted. The manifest, ``MANIFEST`` in the root, is a JSON list of
    the names written. Before a file changes, it lists every name this call
    may leave behind, so that a later build deletes what an interrupted one
    made; at the end it lists exactly the names written. A result with
    errors left rules out, so it deletes nothing and its manifest keeps the
    previous build's names; one with errors and no rules changes nothing on
    disk. No other file in the root is touched. A manifest that cannot be
    read is a warning appended to ``diagnostics``, when given, and then
    nothing earlier is deleted.
    """
    rendered: list[tuple[str, bytes]] = []
    for file_name, spec in result.generated:
        if not _plain_name(file_name):
            raise ValueError(f"output file name '{file_name}' escapes the output root")
        leftovers = variation_points(spec)
        if leftovers:
            raise ValueError(f"rule {spec.name} still has variation points: {', '.join(leftovers)}")
        rendered.append((file_name, pretty_print(spec).encode("utf-8")))
    if not rendered and has_errors(result.diagnostics):
        return []

    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    names = [file_name for file_name, _ in rendered]
    produced = set(names)
    stale = [name for name in _previous_outputs(root / MANIFEST, diagnostics)
             if name not in produced]
    if has_errors(result.diagnostics):
        names, stale = names + stale, []
    changed = [(name, data) for name, data in rendered
               if not _holds(os.path.join(root, name), data)]
    if changed:  # list what a write may leave behind before it is made
        _put_manifest(root, names + stale + [_temporary(name) for name, _ in changed]
                      + [_temporary(MANIFEST)])
    for file_name, data in changed:
        _replace(root, file_name, data)
    for file_name in stale:
        try:
            os.unlink(root / file_name)
        except (FileNotFoundError, IsADirectoryError):
            pass  # gone already, or a directory made since
    _put_manifest(root, names)
    return [root / file_name for file_name, _ in rendered]
