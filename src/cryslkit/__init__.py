"""cryslkit: manage families of CrySL API-usage rules.

Authors write abstract rules with variation points, refinements that resolve
them, and build configurations that tie both together; the toolchain
generates concrete CrySL rule sets per configuration, checks recorded event
traces against them, and reports compactness and duplication metrics.

``import cryslkit`` loads no submodule: each name below is imported from its
module the first time it is used (PEP 562), so a command that never checks a
trace never compiles the trace checker.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "automaton": """Nfa StateLimitError TypestateAutomaton build_nfa compile_order
                        lazy_automaton to_dot""",
        "diagnostics": "Diagnostic Loc Severity has_errors",
        "emitter": "emit pretty_print",
        "metrics": "LineStats SavingsReport count_lines normalize_lines savings",
        "model": """AggregateDecl BuildConfig CrySLSpec EventDecl LiteralSet LoadDirective
                    MetaVarRef ObjectDecl PredicateRef RefinementSpec validate_rule_set
                    validate_spec variation_points""",
        "parsing": "ParseError SourceFile parse_abstract parse_config parse_crysl parse_refinement",
        "preprocessor": """BuildResult BuildStats RefinementError SpecRegistry apply_refinement
                           load resolve run_build""",
        "tracecheck": """CheckResult Ref TraceEvent UNKNOWN Violation check_trace compile_rules
                         load_trace parse_trace_lines report""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # Not an export; ``from cryslkit import emitter`` then imports the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _MODULE_OF.keys())
