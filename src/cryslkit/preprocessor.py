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
    AddConstraint,
    AddEvent,
    AddPredicate,
    ConstraintExpr,
    CrySLSpec,
    DefineLiteralSet,
    Implication,
    LiteralSet,
    MetaVarRef,
    RefinementSpec,
    RemoveConstraint,
    RemoveEvent,
    RemovePredicate,
    ReplaceOrder,
    meta_var_names,
    simple_name,
    validate_spec,
    variation_points,
)
from .parsing import RULE_SUFFIXES, ParseError, SourceFile, parse_refinement, read_rule, rule_files


class RefinementError(LocatedError):
    """A refinement operation that cannot be applied to its base rule."""


class SpecRegistry:
    """Everything a build loaded, keyed by name, in load order; ``invalid``
    names the specs whose validation reported errors."""

    __slots__ = ("specs", "refinements", "invalid")

    def __init__(self) -> None:
        self.specs: dict[str, CrySLSpec] = {}
        self.refinements: dict[str, RefinementSpec] = {}
        self.invalid: set[str] = set()


class BuildStats(Record):
    specs_loaded: int
    refinements_applied: int
    specs_emitted: int


class BuildResult(Record):
    generated: list[tuple[str, CrySLSpec]]
    diagnostics: list[Diagnostic]
    stats: BuildStats


def load(config, parsed: dict | None = None) -> tuple[SpecRegistry, list[Diagnostic]]:
    """Load every spec and refinement named by a configuration.

    ``src`` is relative to the directory of the file the configuration was
    parsed from (the working directory when it has none). Directory loads
    pick up files one subdirectory deep, sorted lexicographically; loading
    the same spec or refinement name twice is an error. ``parsed`` keeps what
    each file parsed to, by path, so that builds sharing it read a file once.
    """
    parsed = {} if parsed is None else parsed
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

        table = registry.specs if directive.kind == "spec" else registry.refinements
        unnamed = "<rule>" if directive.kind == "spec" else "<refinement>"
        for file_path in rule_files(target, suffixes):
            if file_path not in parsed:
                try:
                    if directive.kind == "spec":
                        parsed[file_path] = [read_rule(file_path)]
                    else:
                        parsed[file_path] = parse_refinement(SourceFile.from_path(file_path))
                except ParseError as exc:
                    parsed[file_path] = exc.diagnostic
            loaded = parsed[file_path]
            if isinstance(loaded, Diagnostic):
                diags.append(loaded)
                continue
            for item in loaded:
                if item.name in table:
                    other = table[item.name].source_path or unnamed
                    diags.append(
                        error_at(item.source_path or unnamed, item.loc,
                                 f"duplicate {directive.kind} name '{item.name}' "
                                 f"(already loaded from {other})")
                    )
                    continue
                table[item.name] = item
                if directive.kind == "spec":
                    problems = validate_spec(item)
                    if problems:
                        registry.invalid.add(item.name)
                    diags.extend(problems)

    return registry, diags


# ---------------------------------------------------------------------------
# Applying refinements
# ---------------------------------------------------------------------------


def _apply_type_binding(
    spec: CrySLSpec, param: str, fqn: str, renames_header: bool
) -> CrySLSpec:
    """Substitute one type parameter everywhere it can occur.

    Object types take the fully qualified name; method-name positions take
    the simple name (a constructor event carries the class's simple name).
    When the binding covers the template's first parameter the SPEC header
    switches to the fully qualified bound class.
    """
    placeholder = f"<{param}>"
    short = simple_name(fqn)
    objects = tuple(
        o.replace(type_name=o.type_name.replace(placeholder, fqn)) for o in spec.objects
    )
    events = tuple(
        e.replace(method_name=e.method_name.replace(placeholder, short)) for e in spec.events
    )
    if renames_header:
        class_name = fqn
    else:
        class_name = spec.class_name.replace(placeholder, fqn)
    return spec.replace(
        class_name=class_name,
        objects=objects,
        events=events,
        type_params=tuple(p for p in spec.type_params if p != param),
    )


def _resolve_meta_vars(spec: CrySLSpec, env: dict[str, LiteralSet]) -> CrySLSpec:
    def resolve_constraint(c: ConstraintExpr) -> ConstraintExpr:
        if isinstance(c, Implication):
            return c.replace(lhs=resolve_constraint(c.lhs), rhs=resolve_constraint(c.rhs))
        if isinstance(c.values, MetaVarRef) and c.values.name in env:
            return c.replace(values=env[c.values.name])
        return c

    return spec.replace(constraints=tuple(resolve_constraint(c) for c in spec.constraints))


def apply_refinement(
    base: CrySLSpec,
    refinement: RefinementSpec,
    already_bound: frozenset[str] = frozenset(),
) -> CrySLSpec:
    """Apply one refinement to a copy of its base rule.

    Operations run in listed order; the result is renamed after the
    refinement and may still carry unresolved variation points (the caller
    decides whether that is an error). ``already_bound`` carries
    meta-variable names bound for this base by earlier refinements in the
    same build; re-defining one of them is a conflict.
    """
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
                if op.aggregate not in spec.aggregate_names():
                    fail(op.loc, f"unknown aggregate '{op.aggregate}'")
                aggregates = tuple(
                    agg.replace(alternatives=agg.alternatives + (op.event.label,))
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
                aggregates.append(agg.replace(alternatives=alternatives))
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
        elif isinstance(op, AddPredicate):
            spec = spec.replace(**{op.kind: getattr(spec, op.kind) + (op.predicate,)})
        elif isinstance(op, RemovePredicate):
            pool = getattr(spec, op.kind)
            remaining = tuple(p for p in pool if p.name != op.name)
            if len(remaining) == len(pool):
                fail(op.loc, f"no {op.kind} predicate named '{op.name}'")
            spec = spec.replace(**{op.kind: remaining})
        else:  # pragma: no cover - exhaustive over RefinementOp
            fail(refinement.loc, f"unsupported refinement op {type(op).__name__}")

    return _resolve_meta_vars(spec, env)


# ---------------------------------------------------------------------------
# Resolving a whole registry
# ---------------------------------------------------------------------------


def resolve(registry: SpecRegistry) -> BuildResult:
    """Generate concrete rules from a loaded registry.

    Refinements run in load order, each against the pristine base; rules
    never targeted by a refinement pass through unchanged when they have no
    variation points and are an error otherwise. Every rule a refinement
    generates is validated before it enters the result; an untargeted rule
    enters it only if ``load`` found it valid.
    """
    diags: list[Diagnostic] = []
    generated: list[tuple[str, CrySLSpec]] = []
    file_names: dict[str, str] = {}
    bound: dict[str, set[str]] = {}  # targeted base -> meta-variables bound so far
    applied = 0

    def add_output(name: str, spec: CrySLSpec | None, kind: str, path: str, loc: Loc | None) -> None:
        file_name = f"{name}.crysl"
        if file_name in file_names:
            diags.append(
                error_at(path, loc,
                         f"output file '{file_name}' already produced by {file_names[file_name]}")
            )
            return
        file_names[file_name] = f"{kind} '{name}'"
        if spec is not None:
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
        base_bound = bound.setdefault(base_key, set())
        try:
            spec = apply_refinement(base, refinement, frozenset(base_bound))
        except RefinementError as exc:
            diags.append(exc.diagnostic)
            continue
        base_bound.update(op.name for op in refinement.ops if isinstance(op, DefineLiteralSet))
        unbound = variation_points(spec)
        if unbound:
            diags.append(
                error_at(path, refinement.loc, f"unbound {', '.join(unbound)} in '{refinement.name}'")
            )
            continue
        rule_diags = validate_spec(spec)
        if rule_diags:
            diags.extend(rule_diags)
            diags.append(
                error_at(path, refinement.loc,
                         f"refinement '{refinement.name}' produced an invalid rule")
            )
            continue
        applied += 1
        add_output(refinement.name, spec, "refinement", path, refinement.loc)

    for key, spec in registry.specs.items():
        if key in bound:
            continue
        path = spec.source_path or "<rule>"
        unbound = variation_points(spec)
        if unbound:
            diags.append(
                error_at(path, spec.loc,
                         f"unbound {', '.join(unbound)} in '{key}' (no covering refinement)")
            )
            continue
        # An invalid spec is never emitted, but still claims its file name.
        add_output(key, None if key in registry.invalid else spec, "spec", path, spec.loc)

    stats = BuildStats(
        specs_loaded=len(registry.specs),
        refinements_applied=applied,
        specs_emitted=len(generated),
    )
    return BuildResult(generated=generated, diagnostics=diags, stats=stats)


def run_build(config, parsed: dict | None = None) -> BuildResult:
    """Load and resolve a configuration in one step; ``parsed`` as for ``load``."""
    registry, load_diags = load(config, parsed)
    result = resolve(registry)
    return result.replace(diagnostics=load_diags + result.diagnostics)
