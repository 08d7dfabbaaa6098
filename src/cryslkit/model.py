"""AST types for the four rule languages plus structural validation.

Four surface languages share these types:

* CrySL rules (``.crysl``) and abstract rules (``.mcsl``) both parse to
  :class:`CrySLSpec`. An abstract rule may declare type parameters and use
  meta-variables (``$Name``) in literal-set positions and type-parameter
  placeholders (``<T>``) in type and method positions; a rule is abstract
  exactly while :func:`variation_points` finds any of them,
* refinement files (``.ref``) parse to :class:`RefinementSpec`,
* build configurations (``.conf``) parse to :class:`BuildConfig`.

All nodes are :class:`~cryslkit.diagnostics.Record` values, immutable by
contract: no API assigns to a node's field after construction, and
``node.replace(...)`` returns a changed copy, so nodes are safe to share
between threads and builds. The contract is not enforced at run time, because
a frozen-style store through ``object.__setattr__`` costs two to four times a
plain one, paid for every node parsed and every trace event read. Equality is
structural: source locations and source paths never participate.
"""

from __future__ import annotations

import re
from typing import Iterator, Union

from .diagnostics import Diagnostic, Loc, Record, error_at, warning_at

LiteralValue = Union[str, int]

_PLACEHOLDER_RE = re.compile(r"<([A-Za-z_][A-Za-z0-9_]*)>")


def simple_name(qualified: str) -> str:
    """Last dot-separated segment of a (possibly qualified) class name."""
    return qualified.rsplit(".", 1)[-1]


# ---------------------------------------------------------------------------
# Literal sets and constraints
# ---------------------------------------------------------------------------


class LiteralSet(Record):
    """An order-insensitive set of string or integer literals."""

    values: frozenset  # of LiteralValue

    def __init__(self, values):
        self.values = frozenset(values)


class MetaVarRef(Record):
    """A ``$Name`` hole in a literal-set position of an abstract rule."""

    name: str


SetExpr = Union[LiteralSet, MetaVarRef]


class Membership(Record):
    var: str
    values: SetExpr
    loc: Loc | None = None


class Implication(Record):
    lhs: "ConstraintExpr"
    rhs: "ConstraintExpr"
    loc: Loc | None = None


ConstraintExpr = Union[Membership, Implication]


# ---------------------------------------------------------------------------
# Order expressions
# ---------------------------------------------------------------------------


class Atom(Record):
    label: str
    loc: Loc | None = None


class Seq(Record):
    parts: tuple["OrderExpr", ...]


class Alt(Record):
    parts: tuple["OrderExpr", ...]


class Opt(Record):
    child: "OrderExpr"


class Star(Record):
    child: "OrderExpr"


class Plus(Record):
    child: "OrderExpr"


OrderExpr = Union[Atom, Seq, Alt, Opt, Star, Plus]


def order_atoms(expr: OrderExpr) -> Iterator[Atom]:
    """All atoms of an order expression, left to right."""
    if isinstance(expr, Atom):
        yield expr
    elif isinstance(expr, (Seq, Alt)):
        for part in expr.parts:
            yield from order_atoms(part)
    else:
        yield from order_atoms(expr.child)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


class VarRef(Record):
    name: str


class LiteralArg(Record):
    value: LiteralValue


class Wildcard(Record):
    """The ``_`` event parameter: matches any argument, binds nothing."""


ParamRef = Union[VarRef, LiteralArg, Wildcard]


class ObjectDecl(Record):
    type_name: str
    var_name: str
    loc: Loc | None = None


class EventDecl(Record):
    label: str
    return_binding: str | None
    method_name: str
    params: tuple[ParamRef, ...]
    loc: Loc | None = None


class AggregateDecl(Record):
    name: str
    alternatives: tuple[str, ...]
    loc: Loc | None = None


class PredicateRef(Record):
    name: str
    args: tuple[str, ...]
    loc: Loc | None = None


# ---------------------------------------------------------------------------
# Rule specifications
# ---------------------------------------------------------------------------


class CrySLSpec(Record):
    """One usage rule for a single class. ``type_params`` makes it a template
    that cannot be emitted until every parameter is bound to a class name."""

    class_name: str
    objects: tuple[ObjectDecl, ...]
    events: tuple[EventDecl, ...]
    aggregates: tuple[AggregateDecl, ...]
    order: OrderExpr
    constraints: tuple[ConstraintExpr, ...] = ()
    requires: tuple[PredicateRef, ...] = ()
    ensures: tuple[PredicateRef, ...] = ()
    source_path: str | None = None
    loc: Loc | None = None
    order_loc: Loc | None = None  # ORDER keyword
    type_params: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        """Registry name: the simple name of the class under specification."""
        return simple_name(self.class_name)

    def event_labels(self) -> list[str]:
        return [e.label for e in self.events]

    def aggregate_names(self) -> list[str]:
        return [a.name for a in self.aggregates]

    def declared_vars(self) -> set[str]:
        return {o.var_name for o in self.objects}


def constraint_memberships(constraint: ConstraintExpr) -> Iterator[Membership]:
    if isinstance(constraint, Membership):
        yield constraint
    else:
        yield from constraint_memberships(constraint.lhs)
        yield from constraint_memberships(constraint.rhs)


def meta_var_names(spec: CrySLSpec) -> list[str]:
    """Names of unresolved meta-variables, in first-occurrence order."""
    seen: list[str] = []
    for constraint in spec.constraints:
        for membership in constraint_memberships(constraint):
            values = membership.values
            if isinstance(values, MetaVarRef) and values.name not in seen:
                seen.append(values.name)
    return seen


def placeholder_names(spec: CrySLSpec) -> list[str]:
    """Type-parameter placeholders used in type or method positions."""
    seen: list[str] = []

    def scan(text: str) -> None:
        for match in _PLACEHOLDER_RE.finditer(text):
            if match.group(1) not in seen:
                seen.append(match.group(1))

    scan(spec.class_name)
    for obj in spec.objects:
        scan(obj.type_name)
    for event in spec.events:
        scan(event.method_name)
    return seen


def variation_points(spec: CrySLSpec) -> list[str]:
    """Unresolved variation points as written, each once: meta-variables
    (``$Name``), then placeholders and type parameters (``<T>``)."""
    points = [f"${name}" for name in meta_var_names(spec)]
    points += [f"<{name}>" for name in placeholder_names(spec)]
    points += [f"<{name}>" for name in spec.type_params]
    return list(dict.fromkeys(points))


# ---------------------------------------------------------------------------
# Refinements
# ---------------------------------------------------------------------------


class DefineLiteralSet(Record):
    name: str
    values: LiteralSet
    loc: Loc | None = None


class AddEvent(Record):
    event: EventDecl
    aggregate: str | None = None
    loc: Loc | None = None


class RemoveEvent(Record):
    label: str
    loc: Loc | None = None


class AddConstraint(Record):
    constraint: ConstraintExpr
    loc: Loc | None = None


class RemoveConstraint(Record):
    """Removes the constraint that structurally matches ``constraint``."""

    constraint: ConstraintExpr
    loc: Loc | None = None


class ReplaceOrder(Record):
    order: OrderExpr
    loc: Loc | None = None


class AddPredicate(Record):
    kind: str  # "ensures" | "requires"
    predicate: PredicateRef
    loc: Loc | None = None


class RemovePredicate(Record):
    kind: str  # "ensures" | "requires"
    name: str
    loc: Loc | None = None


RefinementOp = Union[
    DefineLiteralSet,
    AddEvent,
    RemoveEvent,
    AddConstraint,
    RemoveConstraint,
    ReplaceOrder,
    AddPredicate,
    RemovePredicate,
]


class RefinementSpec(Record):
    """A named bundle of transformations targeting one base rule."""

    name: str
    base_name: str
    type_args: tuple[str, ...] = ()
    ops: tuple[RefinementOp, ...] = ()
    source_path: str | None = None
    loc: Loc | None = None


# ---------------------------------------------------------------------------
# Build configurations
# ---------------------------------------------------------------------------


class LoadDirective(Record):
    kind: str  # "spec" | "refinement"
    path: str
    loc: Loc | None = None


class BuildConfig(Record):
    name: str
    src: str
    out: str
    loads: tuple[LoadDirective, ...]
    source_path: str | None = None
    loc: Loc | None = None


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _sort_key(diag: Diagnostic) -> tuple[int, int, str]:
    return (diag.line, diag.column, diag.message)


def validate_spec(spec: CrySLSpec) -> list[Diagnostic]:
    """All structural problems of a single rule, ordered by source location.

    Validation never stops at the first problem; an empty result means the
    rule is well formed. Works on abstract rules as well.
    """
    path = spec.source_path or "<rule>"
    diags: list[Diagnostic] = []

    def err(loc: Loc | None, message: str) -> None:
        diags.append(error_at(path, loc or spec.loc, message))

    seen_objects: set[str] = set()
    for obj in spec.objects:
        if obj.var_name in seen_objects:
            err(obj.loc, f"duplicate object declaration '{obj.var_name}'")
        seen_objects.add(obj.var_name)

    labels: set[str] = set()
    for event in spec.events:
        if event.label in labels:
            err(event.loc, f"duplicate label '{event.label}'")
        labels.add(event.label)

    aggregate_names: set[str] = set()
    for agg in spec.aggregates:
        if agg.name in aggregate_names or agg.name in labels:
            err(agg.loc, f"duplicate label '{agg.name}'")
        aggregate_names.add(agg.name)
        for alt in agg.alternatives:
            if alt not in labels:
                err(agg.loc, f"aggregate '{agg.name}' references undeclared event '{alt}'")

    declared = spec.declared_vars()
    for event in spec.events:
        if event.return_binding is not None and event.return_binding not in declared:
            err(event.loc, f"return binding '{event.return_binding}' is not a declared object")
        for param in event.params:
            if isinstance(param, VarRef) and param.name not in declared:
                err(event.loc, f"parameter '{param.name}' is not a declared object")

    resolvable = labels | aggregate_names
    for atom in order_atoms(spec.order):
        if atom.label not in resolvable:
            err(atom.loc, f"unresolved label '{atom.label}'")

    for constraint in spec.constraints:
        if isinstance(constraint, Implication):
            for side in (constraint.lhs, constraint.rhs):
                if not isinstance(side, Membership):
                    err(constraint.loc, "implication sides must be plain memberships")
        for membership in constraint_memberships(constraint):
            if membership.var not in declared:
                err(membership.loc, f"constraint references undeclared variable '{membership.var}'")
            if isinstance(membership.values, LiteralSet) and not membership.values.values:
                err(membership.loc, "literal set must not be empty")

    for pred in spec.requires + spec.ensures:
        for arg in pred.args:
            if arg not in declared:
                err(pred.loc, f"predicate argument '{arg}' is not a declared object")

    for placeholder in placeholder_names(spec):
        if placeholder not in spec.type_params:
            err(spec.loc, f"type parameter '{placeholder}' is not declared")

    diags.sort(key=_sort_key)
    return diags


def validate_rule_set(specs: list[CrySLSpec]) -> list[Diagnostic]:
    """Cross-rule checks: duplicate classes and unsatisfied REQUIRES links.

    A REQUIRES predicate is satisfied when any rule in the set ENSURES a
    predicate with the same name and arity; matching never looks at argument
    identities.
    """
    diags: list[Diagnostic] = []
    seen_classes: set[str] = set()
    for spec in specs:
        path = spec.source_path or "<rule>"
        if spec.class_name in seen_classes:
            diags.append(error_at(path, spec.loc, f"duplicate rule for class '{spec.class_name}'"))
        seen_classes.add(spec.class_name)

    ensured = {(pred.name, len(pred.args)) for spec in specs for pred in spec.ensures}
    for spec in specs:
        path = spec.source_path or "<rule>"
        for pred in spec.requires:
            if (pred.name, len(pred.args)) not in ensured:
                diags.append(
                    warning_at(
                        path,
                        pred.loc,
                        f"no rule in the set ensures predicate '{pred.name}/{len(pred.args)}'",
                    )
                )
    return diags
