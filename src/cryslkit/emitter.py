"""Canonical rendering of rules and output-directory layout.

The canonical form is a bit-exact contract: fixed section order, four-space
indentation, one declaration per line, literal sets sorted by their rendered
text, a single blank line between sections, ``\\n`` newlines and no trailing
whitespace. Re-emitting an unchanged build result reproduces identical bytes.
"""

from __future__ import annotations

from pathlib import Path

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

# Operator precedence for parenthesization: alternation < sequence < postfix.
_PREC_ALT = 0
_PREC_SEQ = 1
_PREC_POST = 2
_PREC_ATOM = 3


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


def emit(result, out: str | Path) -> list[Path]:
    """Write every generated rule of a build result under ``out``.

    Creates the output root if absent and returns the written paths in
    emission order. File names come from the build result and never contain
    path separators, so emission cannot escape the output root. A rule that
    still has variation points is a ``ValueError`` before it is written.
    """
    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for file_name, spec in result.generated:
        if Path(file_name).name != file_name:
            raise ValueError(f"output file name '{file_name}' escapes the output root")
        leftovers = variation_points(spec)
        if leftovers:
            raise ValueError(f"rule {spec.name} still has variation points: {', '.join(leftovers)}")
        target = root / file_name
        target.write_text(pretty_print(spec), encoding="utf-8", newline="\n")
        written.append(target)
    return written
