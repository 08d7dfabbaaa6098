"""cryslkit: manage families of CrySL API-usage rules.

Authors write abstract rules with variation points, refinements that resolve
them, and build configurations that tie both together; the toolchain
generates concrete CrySL rule sets per configuration, checks recorded event
traces against them, and reports compactness and duplication metrics.
"""

from .automaton import (
    Nfa,
    StateLimitError,
    TypestateAutomaton,
    Verdict,
    VerdictKind,
    accepts,
    build_nfa,
    compile_order,
    inline_aggregates,
    lazy_automaton,
    to_dot,
)
from .diagnostics import Diagnostic, Loc, Severity, has_errors
from .emitter import emit, pretty_print
from .metrics import (
    BuildFailure,
    LineStats,
    SavingsReport,
    count_lines,
    count_text_lines,
    normalize_lines,
    savings,
)
from .model import (
    AbstractSpec,
    AggregateDecl,
    BuildConfig,
    CrySLSpec,
    EventDecl,
    LiteralSet,
    LoadDirective,
    MetaVarRef,
    ObjectDecl,
    PredicateRef,
    RefinementSpec,
    has_variation_points,
    to_concrete,
    validate_rule_set,
    validate_spec,
)
from .parsing import (
    ParseError,
    SourceFile,
    parse_abstract,
    parse_config,
    parse_crysl,
    parse_refinement,
)
from .preprocessor import (
    BuildResult,
    BuildStats,
    RefinementError,
    SpecRegistry,
    apply_refinement,
    load,
    resolve,
    run_build,
)
from .tracecheck import (
    CheckResult,
    Ref,
    RuleSet,
    TraceEvent,
    UNKNOWN,
    Violation,
    check_trace,
    compile_rules,
    load_trace,
    match_event,
    parse_trace_lines,
    report,
)

__version__ = "0.1.0"
