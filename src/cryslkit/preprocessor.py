"""The refinement engine: turns a build configuration into concrete rules.

``load`` reads the configuration's spec and refinement sources into a
registry; ``resolve`` applies every refinement in load order and collects the
concrete rules. Each refinement application starts from the pristine base
rule and must resolve all of its variation points, so one refinement yields
exactly one output rule. Meta-variable bindings are remembered per base rule
across the whole build: a later ``define`` of an already-bound meta-variable
is a conflict, never a silent override, so layered configurations must
partition their bindings.

Type parameters are template expansion, not shared state: several refinements
may bind the same parameter of one template, producing one rule copy each.
"""

from __future__ import annotations

from pathlib import Path

from .diagnostics import Diagnostic, Loc, LocatedError, Record, error_at
from .model import (
    AbstractSpec,
    AddConstraint,
    AddEnsures,
    AddEvent,
    AddRequires,
    AggregateDecl,
    CrySLSpec,
    DefineLiteralSet,
    EventDecl,
    Implication,
    LiteralSet,
    Membership,
    MetaVarRef,
    ObjectDecl,
    RefinementSpec,
    RemoveConstraint,
    RemoveEvent,
    RemovePredicate,
    ReplaceOrder,
    meta_var_names,
    simple_name,
    spec_as,
    to_concrete,
    validate_spec,
    variation_points,
)
from .parsing import RULE_SUFFIXES, ParseError, SourceFile, parse_refinement, read_rule, rule_files


class RefinementError(LocatedError):
    """A refinement operation that cannot be applied to its base rule."""


class SpecRegistry:
    """Everything a build loaded, keyed by name, in load order."""

    __slots__ = ("specs", "refinements")

    def __init__(self) -> None:
        self.specs: dict[str, AbstractSpec] = {}
        self.refinements: dict[str, RefinementSpec] = {}


class BuildStats(Record):
    specs_loaded: int
    refinements_applied: int
    specs_emitted: int


class BuildResult(Record):
    generated: list[tuple[str, CrySLSpec]]
    diagnostics: list[Diagnostic]
    stats: BuildStats


def load(config) -> tuple[SpecRegistry, list[Diagnostic]]:
    """Load every spec and refinement named by a configuration.

    ``src`` is relative to the directory of the file the configuration was
    parsed from (the working directory when it has none). Directory loads
    pick up files one subdirectory deep, sorted lexicographically; loading
    the same spec or refinement name twice is an error.
    """
    config_dir = Path(config.source_path).parent if config.source_path else Path(".")
    src_root = config_dir / config.src
    registry = SpecRegistry()
    diags: list[Diagnostic] = []
    config_path = config.source_path or "<config>"

    if not src_root.is_dir():
        diags.append(error_at(config_path, config.loc, f"missing path: src '{src_root}' is not a directory"))
        return registry, diags

    for directive in config.loads:
        target = src_root / directive.path
        suffixes = RULE_SUFFIXES if directive.kind == "spec" else (".ref",)
        if not target.is_file() and not target.is_dir():
            diags.append(error_at(config_path, directive.loc, f"missing path: '{target}'"))
            continue
        if target.is_file() and target.suffix not in suffixes:
            diags.append(
                error_at(config_path, directive.loc,
                         f"'{directive.path}' is not a {directive.kind} file")
            )
            continue

        for file_path in rule_files(target, suffixes):
            try:
                if directive.kind == "spec":
                    _register_spec(registry, spec_as(AbstractSpec, read_rule(file_path)), diags)
                else:
                    for refinement in parse_refinement(SourceFile.from_path(file_path)):
                        _register_refinement(registry, refinement, diags)
            except ParseError as exc:
                diags.append(exc.diagnostic)

    return registry, diags


def _register_spec(registry: SpecRegistry, spec: AbstractSpec, diags: list[Diagnostic]) -> None:
    key = spec.name
    if key in registry.specs:
        other = registry.specs[key].source_path or "<rule>"
        diags.append(
            error_at(spec.source_path or "<rule>", spec.loc,
                     f"duplicate spec name '{key}' (already loaded from {other})")
        )
        return
    for diag in validate_spec(spec):
        diags.append(diag)
    registry.specs[key] = spec


def _register_refinement(
    registry: SpecRegistry, refinement: RefinementSpec, diags: list[Diagnostic]
) -> None:
    if refinement.name in registry.refinements:
        other = registry.refinements[refinement.name].source_path or "<refinement>"
        diags.append(
            error_at(refinement.source_path or "<refinement>", refinement.loc,
                     f"duplicate refinement name '{refinement.name}' (already loaded from {other})")
        )
        return
    registry.refinements[refinement.name] = refinement


# ---------------------------------------------------------------------------
# Applying refinements
# ---------------------------------------------------------------------------


def _substitute_placeholder(text: str, param: str, replacement: str) -> str:
    return text.replace(f"<{param}>", replacement)


def _apply_type_binding(
    spec: AbstractSpec, param: str, fqn: str, renames_header: bool
) -> AbstractSpec:
    """Substitute one type parameter everywhere it can occur.

    Object types take the fully qualified name; method-name positions take
    the simple name (a constructor event carries the class's simple name).
    When the binding covers the template's first parameter the SPEC header
    switches to the fully qualified bound class.
    """
    short = simple_name(fqn)
    objects = tuple(
        ObjectDecl(_substitute_placeholder(o.type_name, param, fqn), o.var_name, loc=o.loc)
        for o in spec.objects
    )
    events = tuple(
        EventDecl(
            e.label,
            e.return_binding,
            _substitute_placeholder(e.method_name, param, short),
            e.params,
            loc=e.loc,
        )
        for e in spec.events
    )
    if renames_header:
        class_name = fqn
    else:
        class_name = _substitute_placeholder(spec.class_name, param, fqn)
    return spec.replace(
        class_name=class_name,
        objects=objects,
        events=events,
        type_params=tuple(p for p in spec.type_params if p != param),
    )


def _resolve_meta_vars(spec: AbstractSpec, env: dict[str, LiteralSet]) -> AbstractSpec:
    def resolve_membership(m: Membership) -> Membership:
        if isinstance(m.values, MetaVarRef) and m.values.name in env:
            return Membership(m.var, env[m.values.name], loc=m.loc)
        return m

    constraints = []
    for constraint in spec.constraints:
        if isinstance(constraint, Implication):
            constraints.append(
                Implication(resolve_membership(constraint.lhs),
                            resolve_membership(constraint.rhs), loc=constraint.loc)
            )
        else:
            constraints.append(resolve_membership(constraint))
    return spec.replace(constraints=tuple(constraints))


def apply_refinement(
    base: AbstractSpec,
    refinement: RefinementSpec,
    already_bound: frozenset[str] = frozenset(),
) -> AbstractSpec:
    """Apply one refinement to a copy of its base rule.

    Operations run in listed order; the result is renamed after the
    refinement and may still carry unresolved variation points (the caller
    decides whether that is an error). ``already_bound`` carries
    meta-variable names bound for this base by earlier refinements in the
    same build; re-defining one of them is a conflict.
    """
    spec, _ = _apply(base, refinement, already_bound)
    return spec


def _apply(
    base: AbstractSpec, refinement: RefinementSpec, already_bound: frozenset[str]
) -> tuple[AbstractSpec, set[str]]:
    path = refinement.source_path or "<refinement>"

    def fail(loc: Loc | None, message: str):
        raise RefinementError(path, loc or refinement.loc, message)

    if simple_name(refinement.base_name) != base.name:
        fail(refinement.loc, f"refinement targets '{refinement.base_name}', not '{base.name}'")
    if len(refinement.type_args) != len(base.type_params):
        fail(
            refinement.loc,
            f"base '{base.name}' declares {len(base.type_params)} type parameter(s), "
            f"got {len(refinement.type_args)} argument(s)",
        )

    spec = base
    header_param = base.type_params[0] if base.type_params else None
    for param, fqn in zip(base.type_params, refinement.type_args):
        spec = _apply_type_binding(spec, param, fqn, param == header_param)

    env: dict[str, LiteralSet] = {}
    for op in refinement.ops:
        if isinstance(op, DefineLiteralSet):
            if op.name in env or op.name in already_bound:
                fail(op.loc, f"meta-variable '${op.name}' is already bound for '{base.name}'")
            if op.name not in meta_var_names(spec):
                fail(op.loc, f"unknown meta-variable '${op.name}' in base '{base.name}'")
            env[op.name] = op.values
        elif isinstance(op, AddEvent):
            taken = set(spec.event_labels()) | set(spec.aggregate_names())
            if op.event.label in taken:
                fail(op.loc, f"duplicate label '{op.event.label}'")
            events = spec.events + (op.event,)
            aggregates = spec.aggregates
            if op.aggregate is not None:
                by_name = {agg.name: agg for agg in spec.aggregates}
                if op.aggregate not in by_name:
                    fail(op.loc, f"unknown aggregate '{op.aggregate}'")
                aggregates = tuple(
                    AggregateDecl(agg.name, agg.alternatives + (op.event.label,), loc=agg.loc)
                    if agg.name == op.aggregate
                    else agg
                    for agg in spec.aggregates
                )
            spec = spec.replace(events=events, aggregates=aggregates)
        elif isinstance(op, RemoveEvent):
            if op.label not in spec.event_labels():
                fail(op.loc, f"unknown event '{op.label}'")
            events = tuple(e for e in spec.events if e.label != op.label)
            aggregates = []
            for agg in spec.aggregates:
                alternatives = tuple(a for a in agg.alternatives if a != op.label)
                if not alternatives:
                    fail(op.loc, f"removing '{op.label}' would empty aggregate '{agg.name}'")
                aggregates.append(AggregateDecl(agg.name, alternatives, loc=agg.loc))
            spec = spec.replace(events=events, aggregates=tuple(aggregates))
        elif isinstance(op, AddConstraint):
            spec = spec.replace(constraints=spec.constraints + (op.constraint,))
        elif isinstance(op, RemoveConstraint):
            remaining = [c for c in spec.constraints if c != op.constraint]
            if len(remaining) == len(spec.constraints):
                fail(op.loc, "no matching constraint to remove")
            spec = spec.replace(constraints=tuple(remaining))
        elif isinstance(op, ReplaceOrder):
            spec = spec.replace(order=op.order)
        elif isinstance(op, AddEnsures):
            spec = spec.replace(ensures=spec.ensures + (op.predicate,))
        elif isinstance(op, AddRequires):
            spec = spec.replace(requires=spec.requires + (op.predicate,))
        elif isinstance(op, RemovePredicate):
            pool = spec.ensures if op.kind == "ensures" else spec.requires
            remaining = tuple(p for p in pool if p.name != op.name)
            if len(remaining) == len(pool):
                fail(op.loc, f"no {op.kind} predicate named '{op.name}'")
            if op.kind == "ensures":
                spec = spec.replace(ensures=remaining)
            else:
                spec = spec.replace(requires=remaining)
        else:  # pragma: no cover - exhaustive over RefinementOp
            fail(refinement.loc, f"unsupported refinement op {type(op).__name__}")

    spec = _resolve_meta_vars(spec, env)
    return spec, set(env)


# ---------------------------------------------------------------------------
# Resolving a whole registry
# ---------------------------------------------------------------------------


def resolve(registry: SpecRegistry) -> BuildResult:
    """Generate concrete rules from a loaded registry.

    Refinements run in load order, each against the pristine base; abstract
    rules never targeted by a refinement pass through unchanged when they
    have no variation points and are an error otherwise. Every generated
    rule is validated before it enters the result.
    """
    diags: list[Diagnostic] = []
    generated: list[tuple[str, CrySLSpec]] = []
    file_names: dict[str, str] = {}
    bound: dict[str, set[str]] = {}
    targeted: set[str] = set()
    applied = 0

    def add_output(file_name: str, spec: CrySLSpec, origin: str) -> None:
        if file_name in file_names:
            diags.append(
                error_at(origin, None,
                         f"output file '{file_name}' already produced by {file_names[file_name]}")
            )
            return
        file_names[file_name] = origin
        generated.append((file_name, spec))

    for refinement in registry.refinements.values():
        path = refinement.source_path or "<refinement>"
        base_key = simple_name(refinement.base_name)
        base = registry.specs.get(base_key)
        if base is None:
            diags.append(
                error_at(path, refinement.loc, f"base spec not found: '{refinement.base_name}'")
            )
            continue
        targeted.add(base_key)
        try:
            spec, newly_bound = _apply(base, refinement, frozenset(bound.get(base_key, set())))
        except RefinementError as exc:
            diags.append(exc.diagnostic)
            continue
        bound.setdefault(base_key, set()).update(newly_bound)
        unbound = variation_points(spec)
        if unbound:
            diags.append(
                error_at(path, refinement.loc, f"unbound {', '.join(unbound)} in '{refinement.name}'")
            )
            continue
        concrete = to_concrete(spec)
        rule_diags = validate_spec(concrete)
        if rule_diags:
            diags.extend(rule_diags)
            diags.append(
                error_at(path, refinement.loc,
                         f"refinement '{refinement.name}' produced an invalid rule")
            )
            continue
        applied += 1
        add_output(f"{refinement.name}.crysl", concrete, f"refinement '{refinement.name}'")

    for key, spec in registry.specs.items():
        if key in targeted:
            continue
        path = spec.source_path or "<rule>"
        unbound = variation_points(spec)
        if unbound:
            diags.append(
                error_at(path, spec.loc,
                         f"unbound {', '.join(unbound)} in '{key}' (no covering refinement)")
            )
            continue
        add_output(f"{key}.crysl", to_concrete(spec), f"spec '{key}'")

    stats = BuildStats(
        specs_loaded=len(registry.specs),
        refinements_applied=applied,
        specs_emitted=len(generated),
    )
    return BuildResult(generated=generated, diagnostics=diags, stats=stats)


def run_build(config) -> BuildResult:
    """Load and resolve a configuration in one step."""
    registry, load_diags = load(config)
    result = resolve(registry)
    return result.replace(diagnostics=load_diags + result.diagnostics)
