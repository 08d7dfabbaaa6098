from __future__ import annotations

import gc
import inspect
import itertools
import json
import random
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from cryslkit import (
    SourceFile,
    TraceEvent,
    check_trace,
    compile_rules,
    load_trace,
    parse_crysl,
    parse_trace_lines,
    report,
    run_build,
    parse_config,
)
from cryslkit.diagnostics import Loc
from cryslkit.model import Atom, CrySLSpec, LiteralSet, Membership, Plus, Star
from cryslkit.tracecheck import VIOLATION_KINDS, Ref, UNKNOWN, Violation, _ObjectRun, _decode

import oracles
from conftest import MESSAGEDIGEST_RULE, cyclic_garbage

MD = "java.security.MessageDigest"


@pytest.fixture(scope="module")
def digest_rules():
    spec = parse_crysl(SourceFile.for_text(MESSAGEDIGEST_RULE, "crysl"))
    return compile_rules([spec])


def ev(seq, obj, cls, method, args=(), ret=None):
    return TraceEvent(seq, obj, cls, method, tuple(args), ret)


def digest_trace(alg, *, updates=1, finish=True, obj="md1", start=1):
    events = [ev(start, obj, MD, "getInstance", [alg], ret=obj)]
    seq = start + 1
    for _ in range(updates):
        events.append(ev(seq, obj, MD, "update", [UNKNOWN]))
        seq += 1
    if finish:
        events.append(ev(seq, obj, MD, "digest", [], ret=f"{obj}_out"))
    return events


# ---------------------------------------------------------------------------
# matching: class, then method name and arity
# ---------------------------------------------------------------------------


def test_match_by_class_method_and_arity(digest_rules):
    # getInstance/1 is g1, whose `algorithm` the constraint restricts;
    # getInstance/2 is g2, which binds only `digestAlg`.
    def run(*get_args):
        return check_trace(digest_rules, [ev(1, "o", MD, "getInstance", get_args, ret="o"),
                                          ev(2, "o", MD, "update", [UNKNOWN]),
                                          ev(3, "o", MD, "digest", [], ret="out")]).violations

    [violation] = run("MD5")
    assert (violation.kind, violation.seq) == ("constraint", 1)
    assert violation.message.startswith('algorithm = "MD5"')
    assert run("MD5", "BC") == []


def test_unruled_class_is_ignored(digest_rules):
    result = check_trace(digest_rules, [ev(1, "o", "java.util.List", "add", ["x"]),
                                        ev(2, "o", "java.util.List", "zap", [])])
    assert (result.violations, result.warnings) == ([], [])


def test_undeclared_method_on_ruled_class_feeds_sink(digest_rules):
    result = check_trace(digest_rules, digest_trace("SHA-256")[:1] + [ev(9, "md1", MD, "reset", [])])
    assert [v.kind for v in result.violations if v.object_id == "md1"] == ["order"]


# ---------------------------------------------------------------------------
# check_trace
# ---------------------------------------------------------------------------


def test_disallowed_algorithm_is_one_constraint_violation(digest_rules):
    result = check_trace(digest_rules, digest_trace("MD5", updates=2))
    kinds = [v.kind for v in result.violations]
    assert kinds == ["constraint"]
    violation = result.violations[0]
    assert violation.seq == 1
    assert '"MD5"' in violation.message
    assert violation.rule_class == MD


def test_accepted_algorithm_is_clean(digest_rules):
    assert check_trace(digest_rules, digest_trace("SHA-256")).violations == []


def test_missing_final_call_is_incomplete(digest_rules):
    result = check_trace(digest_rules, digest_trace("SHA-256", finish=False))
    assert [v.kind for v in result.violations] == ["incomplete"]
    assert result.violations[0].seq is None


def test_order_violation_reports_first_break(digest_rules):
    events = [
        ev(1, "md1", MD, "getInstance", ["SHA-256"], ret="md1"),
        ev(2, "md1", MD, "digest", [], ret="out1"),
        ev(3, "md1", MD, "update", [UNKNOWN]),
    ]
    result = check_trace(digest_rules, events)
    assert [(v.kind, v.seq) for v in result.violations] == [("order", 2)]


@pytest.mark.parametrize("seqs, message", [
    ((1, 3, 2), "seq 2 does not increase (previous was 3)"),
    ((1, 2, 2), "seq 2 does not increase (previous was 2)"),
])
def test_a_seq_that_does_not_increase_is_refused(digest_rules, seqs, message):
    # The reader's own wording; parse_trace_lines drops such a line, so only
    # a library caller's list gets here.
    events = [ev(seq, "md1", MD, "update", [UNKNOWN]) for seq in seqs]
    with pytest.raises(ValueError) as err:
        check_trace(digest_rules, events)
    assert str(err.value) == message


def test_any_iterable_of_events_is_checked_in_one_pass(android_trace):
    rules, path = android_trace
    events, _ = load_trace(path)
    from_list = check_trace(rules, events)
    from_iterator = check_trace(rules, iter(events))
    assert len(from_list.violations) == MEMORY_REPLICAS * 43
    assert (from_iterator.violations, from_iterator.warnings) == (
        from_list.violations, from_list.warnings)


def test_incomplete_findings_of_one_object_come_in_rule_class_order():
    # The rules are compiled, and so tabled, against rule-class order.
    spec = parse_crysl(SourceFile.for_text(MESSAGEDIGEST_RULE, "crysl"))
    rules = compile_rules([spec, spec.replace(class_name="a.Digest")])
    events = [ev(seq, obj, cls, "getInstance", ["SHA-256"], ret=obj)
              for seq, (obj, cls) in enumerate(
                  [("o2", MD), ("o2", "a.Digest"), ("o1", MD), ("o1", "a.Digest")], start=1)]
    assert [(v.kind, v.object_id, v.rule_class) for v in check_trace(rules, events).violations] == [
        ("incomplete", "o1", "a.Digest"), ("incomplete", "o1", MD),
        ("incomplete", "o2", "a.Digest"), ("incomplete", "o2", MD),
    ]


def test_unknown_values_warn_instead_of_violating(digest_rules):
    events = [
        ev(1, "md1", MD, "getInstance", [UNKNOWN], ret="md1"),
        ev(2, "md1", MD, "update", [UNKNOWN]),
        ev(3, "md1", MD, "digest", [], ret="out1"),
    ]
    result = check_trace(digest_rules, events)
    assert result.violations == []
    assert any("cannot decide" in w.message for w in result.warnings)


def test_constraint_violations_cite_checkable_events(digest_rules):
    trace = digest_trace("MD5") + digest_trace("SHA-1", obj="md2", start=10)
    result = check_trace(digest_rules, trace)
    by_seq = {e.seq: e for e in trace}
    for violation in result.violations:
        assert violation.kind == "constraint"
        cited = by_seq[violation.seq]
        rule = digest_rules[violation.rule_class]
        membership = rule.spec.constraints[0]
        assert isinstance(membership, Membership)
        assert cited.args[0] not in membership.values.values


KEYGEN_RULE = """\
SPEC javax.crypto.KeyGenerator
OBJECTS
    java.lang.String alg;
    int keySize;
    javax.crypto.SecretKey key;
EVENTS
    g1 : getInstance(alg);
    i1 : init(keySize);
    gk : key = generateKey();
ORDER
    g1, i1?, gk
CONSTRAINTS
    alg in {"AES"};
    alg in {"AES"} => keySize in {128, 192, 256};
ENSURES
    generatedKey[key];
"""

CIPHER_RULE = """\
SPEC javax.crypto.Cipher
OBJECTS
    java.lang.String transformation;
    int opmode;
    java.security.Key key;
    byte[] cipherText;
EVENTS
    g1 : getInstance(transformation);
    i1 : init(opmode, key);
    f1 : cipherText = doFinal();
ORDER
    g1, i1, f1
CONSTRAINTS
    transformation in {"AES/GCM/NoPadding"};
REQUIRES
    generatedKey[key];
ENSURES
    encrypted[cipherText];
"""

KG = "javax.crypto.KeyGenerator"
CI = "javax.crypto.Cipher"


@pytest.fixture(scope="module")
def keygen_cipher_rules():
    return compile_rules([
        parse_crysl(SourceFile.for_text(KEYGEN_RULE, "crysl")),
        parse_crysl(SourceFile.for_text(CIPHER_RULE, "crysl")),
    ])


def keygen_events(start=1, obj="kg1", key="key1", alg="AES", size=128):
    return [
        ev(start, obj, KG, "getInstance", [alg], ret=obj),
        ev(start + 1, obj, KG, "init", [size]),
        ev(start + 2, obj, KG, "generateKey", [], ret=key),
    ]


def cipher_events(start, key, obj="ci1"):
    return [
        ev(start, obj, CI, "getInstance", ["AES/GCM/NoPadding"], ret=obj),
        ev(start + 1, obj, CI, "init", [1, Ref(key)]),
        ev(start + 2, obj, CI, "doFinal", [], ret=f"{obj}_ct"),
    ]


def test_ensures_predicate_satisfies_requires(keygen_cipher_rules):
    trace = keygen_events() + cipher_events(10, "key1")
    assert check_trace(keygen_cipher_rules, trace).violations == []


def test_missing_predicate_violation_when_no_producer(keygen_cipher_rules):
    result = check_trace(keygen_cipher_rules, cipher_events(1, "keyX"))
    assert [v.kind for v in result.violations] == ["missing-predicate"]
    assert "generatedKey" in result.violations[0].message


def test_failed_constraint_withholds_ensures_predicate(keygen_cipher_rules):
    trace = keygen_events(alg="DES") + cipher_events(10, "key1")
    kinds = sorted(v.kind for v in check_trace(keygen_cipher_rules, trace).violations)
    assert kinds == ["constraint", "missing-predicate"]


def test_implication_violation_on_bad_key_size(keygen_cipher_rules):
    result = check_trace(keygen_cipher_rules, keygen_events(size=448))
    assert [v.kind for v in result.violations] == ["constraint"]
    assert "448" in result.violations[0].message


def test_object_isolation_under_interleaving(keygen_cipher_rules):
    blocks = [
        keygen_events(obj="kg1", key="key1"),
        keygen_events(start=4, obj="kg2", key="key2", alg="DES"),
        cipher_events(7, "key1", obj="ci1"),
        cipher_events(11, "keyZ", obj="ci2"),
    ]

    def flatten(order):
        merged = list(itertools.chain.from_iterable(order))
        reseq = []
        for new_seq, event in enumerate(sorted(merged, key=lambda e: e.seq), start=1):
            reseq.append(TraceEvent(new_seq, event.object_id, event.class_name,
                                    event.method_name, event.args, event.return_id))
        return reseq

    def interleave(blocks, rng):
        # round-robin merge with random pick; per-object order is preserved
        queues = [list(b) for b in blocks]
        merged = []
        while any(queues):
            pick = rng.choice([q for q in queues if q])
            merged.append(pick.pop(0))
        return [TraceEvent(i + 1, e.object_id, e.class_name, e.method_name, e.args, e.return_id)
                for i, e in enumerate(merged)]

    baseline = check_trace(keygen_cipher_rules, flatten(blocks))
    base_multiset = sorted((v.kind, v.object_id, v.rule_class) for v in baseline.violations)
    rng = random.Random(7)
    for _ in range(10):
        permuted = check_trace(keygen_cipher_rules, interleave(blocks, rng))
        multiset = sorted((v.kind, v.object_id, v.rule_class) for v in permuted.violations)
        assert multiset == base_multiset


def test_removing_algorithm_never_decreases_violations(digest_rules):
    corpus = (
        digest_trace("SHA-256", obj="a")
        + digest_trace("SHA-384", obj="b", start=10)
        + digest_trace("MD5", obj="c", start=20)
    )
    spec = parse_crysl(SourceFile.for_text(MESSAGEDIGEST_RULE, "crysl"))
    full = check_trace(compile_rules([spec]), corpus)

    shrunk_text = MESSAGEDIGEST_RULE.replace('"SHA-384", ', "")
    shrunk = parse_crysl(SourceFile.for_text(shrunk_text, "crysl"))
    fewer = check_trace(compile_rules([shrunk]), corpus)
    assert len(fewer.violations) >= len(full.violations)


HANDLE_RULE = """\
SPEC org.example.Handle
OBJECTS
    java.lang.String mode;
    java.lang.Object h;
EVENTS
    c : h = create();
    o : h = open(mode);
ORDER
    c, o+
CONSTRAINTS
    h in {"h1"};
    mode in {"r", "w"};
    mode in {"w"} => h in {"h1"};
"""


def test_return_binding_without_a_return_id_keeps_the_earlier_value():
    # open() declares the return binding h, but its events carry no return
    # id: h keeps the Ref create() bound, and the constraint on h alone,
    # which open()'s constraint index reaches, is not judged again.
    rules = compile_rules([parse_crysl(SourceFile.for_text(HANDLE_RULE, "crysl"))])
    trace = [
        ev(1, "f1", "org.example.Handle", "create", [], ret="h1"),
        ev(2, "f1", "org.example.Handle", "open", ["w"]),
        ev(3, "f1", "org.example.Handle", "open", ["x"]),
    ]
    result = check_trace(rules, trace)
    assert [(v.kind, v.seq, v.message) for v in result.violations] == [
        ("constraint", 3, 'mode = "x" violates \'mode in {"r", "w"}\''),
    ]
    # Each warning is located at its constraint in the rule.
    assert [w.render() for w in result.warnings] == [
        "<memory>:11:5: warning: seq 1: f1: cannot decide 'h in {\"h1\"}' (unknown value)",
        "<memory>:13:5: warning: seq 2: f1: cannot decide 'mode in {\"w\"} => h in {\"h1\"}' "
        "(unknown value)",
    ]
    expected = oracles.reference_check_trace(rules, trace)
    assert (result.violations, result.warnings) == (expected.violations, expected.warnings)


def test_a_warning_names_the_refinement_file_of_a_constraint_the_refinement_added(
        corpus_copy, monkeypatch):
    # Rules taken from run_build, as in the README's Library example, hold
    # nodes of their base file and of their refinement's.
    monkeypatch.chdir(corpus_copy / "standards")
    ref = Path("fips/messagedigest.ref")
    lines = ref.read_text(encoding="utf-8").split("\n")
    lines.insert(5, '    add constraint algorithm in {"SHA-256"};')
    ref.write_text("\n".join(lines), encoding="utf-8")
    result = run_build(parse_config(SourceFile.from_path("fips.conf")))
    assert result.diagnostics == []
    rules = compile_rules([spec for _, spec in result.generated])
    trace = [ev(1, "md1", MD, "getInstance", [UNKNOWN], ret="md1")]
    warnings = check_trace(rules, trace).warnings
    assert [(w.path, w.line, w.column) for w in warnings] == [
        ("base/messagedigest.mcsl", 18, 5), ("fips/messagedigest.ref", 6, 20),
    ]
    assert warnings[1].message == (
        "seq 1: md1: cannot decide 'algorithm in {\"SHA-256\"}' (unknown value)")


# Argument values the random rules' literal sets and implications draw on,
# plus references and the unknown marker.
_TRACE_VALUES = ("AES", "DES", "SHA-256", "x", 0, 7, 128, 192, 256, UNKNOWN,
                 Ref("o1"), Ref("r1"))


def random_rules_and_trace(rng: random.Random):
    specs = {}
    for _ in range(rng.randint(1, 3)):
        spec = oracles.random_spec(rng)
        specs.setdefault(spec.class_name, spec)
    specs = list(specs.values())
    declared = [(spec.class_name, decl) for spec in specs for decl in spec.events]
    methods = sorted({decl.method_name for _, decl in declared}) + ["undeclared"]
    classes = [spec.class_name for spec in specs] + ["java.util.List"]
    trace = []
    for seq in range(rng.randint(0, 40)):
        if rng.random() < 0.8:  # mostly declared events, so values bind and rebind
            cls, decl = rng.choice(declared)
            method, arity = decl.method_name, len(decl.params)
        else:
            cls, method, arity = rng.choice(classes), rng.choice(methods), rng.randint(0, 3)
        args = [rng.choice(_TRACE_VALUES) for _ in range(arity)]
        ret = rng.choice((None, "o1", "r1", "r2"))
        trace.append(ev(seq, rng.choice(("o1", "o2", "o3")), cls, method, args, ret=ret))
    return specs, trace


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_checker_agrees_with_the_reference_checker(seed):
    specs, trace = random_rules_and_trace(random.Random(seed))
    result = check_trace(compile_rules(specs), trace)
    expected = oracles.reference_check_trace(compile_rules(specs), trace)
    assert result.violations == expected.violations
    assert result.warnings == expected.warnings


# ---------------------------------------------------------------------------
# Trace parsing
# ---------------------------------------------------------------------------


def test_trace_line_round_trip():
    line = json.dumps({
        "seq": 1, "object_id": "o1", "class_name": MD,
        "method_name": "getInstance", "args": ["SHA-256", 5, {"ref": "k"}, "?"],
        "return_id": "o1",
    })
    events, diags = parse_trace_lines([line])
    assert not diags
    assert events[0].args == ("SHA-256", 5, Ref("k"), UNKNOWN)
    assert events[0].return_id == "o1"


def test_a_first_line_of_only_a_byte_order_mark_and_spaces_is_skipped():
    record = {"seq": 1, "object_id": "o", "class_name": MD, "method_name": "digest"}
    events, diags = parse_trace_lines(["\ufeff  \t", json.dumps(record)], "t.jsonl")
    assert [e.seq for e in events] == [1]
    assert diags == []


def test_malformed_line_is_reported_and_skipped():
    lines = ["not json", json.dumps({
        "seq": 1, "object_id": "o", "class_name": MD, "method_name": "digest", "args": [],
    })]
    events, diags = parse_trace_lines(lines, "t.jsonl")
    assert len(events) == 1
    assert len(diags) == 1
    assert diags[0].line == 1
    assert "malformed trace line" in diags[0].message


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seq", 1.9, "'seq' must be an integer, not a number"),
        ("seq", True, "'seq' must be an integer, not a boolean"),
        ("object_id", 5, "'object_id' must be a string, not an integer"),
        ("class_name", None, "'class_name' must be a string, not null"),
        ("method_name", ["digest"], "'method_name' must be a string, not an array"),
        ("seq", False, "'seq' must be an integer, not a boolean"),
        ("args", "SHA", "'args' must be an array, not a string"),
        # Falsy values that are not arrays: an event without arguments is no
        # event whose 'args' is empty but wrongly typed.
        ("args", "", "'args' must be an array, not a string"),
        ("args", {}, "'args' must be an array, not an object"),
        ("args", 0, "'args' must be an array, not an integer"),
        ("args", False, "'args' must be an array, not a boolean"),
        ("args", None, "'args' must be an array, not null"),
        ("return_id", 5, "'return_id' must be a string or null, not an integer"),
    ],
)
def test_wrong_field_type_is_reported_and_skipped(field, value, message):
    record = {"seq": 1, "object_id": "o", "class_name": MD, "method_name": "digest", "args": []}
    record[field] = value
    events, diags = parse_trace_lines([json.dumps(record)], "t.jsonl")
    assert events == []
    assert [d.render() for d in diags] == [f"t.jsonl:1:1: error: malformed trace line: {message}"]


def test_the_first_bad_required_field_is_reported():
    record = {"seq": "1", "class_name": 5, "method_name": "digest"}  # object_id missing
    _, diags = parse_trace_lines([json.dumps(record)], "t.jsonl")
    assert [d.message for d in diags] == ["malformed trace line: 'seq' must be an integer, not a string"]
    del record["seq"]
    _, diags = parse_trace_lines([json.dumps(record)], "t.jsonl")
    assert [d.message for d in diags] == ["malformed trace line: 'seq'"]
    record["seq"] = 1
    _, diags = parse_trace_lines([json.dumps(record)], "t.jsonl")
    assert [d.message for d in diags] == ["malformed trace line: 'object_id'"]


def _trace_line(args: str, seq: str = "1") -> str:
    """One trace line with the JSON texts ``seq`` and ``args`` spliced in."""
    return (f'{{"seq": {seq}, "object_id": "o", "class_name": "{MD}", "method_name": "m", '
            f'"args": [{args}]}}')


@pytest.mark.parametrize(
    "args, outcome",
    [
        ('{"ref": 5}', 'unsupported argument value {"ref": 5}'),
        ('{"ref": "k", "x": 1}', 'unsupported argument value {"ref": "k", "x": 1}'),
        ("{}", "unsupported argument value {}"),
        ('{"REF": "k"}', 'unsupported argument value {"REF": "k"}'),
        ("null", "unsupported argument value null"),
        ("[1]", "unsupported argument value [1]"),
        ('{"ref": "k"}, true', "boolean arguments are not part of the trace format"),
        ("1.5", "unsupported argument value 1.5"),
        ("1e2", "unsupported argument value 100.0"),
        ("Infinity", "unsupported argument value Infinity"),
        ("NaN", "unsupported argument value NaN"),
        # Accepted: the last of repeated keys counts, and -0 is the integer 0.
        ('{"ref": "j", "ref": "k"}', (Ref("k"),)),
        ("-0", (0,)),
    ],
)
def test_argument_values_are_read_or_named_as_json(args, outcome):
    events, diags = parse_trace_lines([_trace_line(args)], "t.jsonl")
    if isinstance(outcome, tuple):
        assert not diags and [e.args for e in events] == [outcome]
    else:
        assert events == []
        assert [d.render() for d in diags] == [f"t.jsonl:1:1: error: malformed trace line: {outcome}"]


def test_integers_past_the_digit_limit_are_malformed_lines():
    digits = "9" * 4301  # one past sys.get_int_max_str_digits() by default
    lines = [_trace_line("1"), _trace_line("", seq=digits), _trace_line(digits, seq="3")]
    events, diags = parse_trace_lines(lines, "t.jsonl")
    assert [e.seq for e in events] == [1]
    assert len(diags) == 2
    for line_no, diag in zip((2, 3), diags):
        assert diag.render().startswith(f"t.jsonl:{line_no}:1: error: malformed trace line: ")


def test_null_return_id_and_missing_args_are_accepted():
    line = json.dumps({"seq": 1, "object_id": "o", "class_name": MD, "method_name": "digest",
                       "return_id": None})
    events, diags = parse_trace_lines([line])
    assert not diags
    assert events[0].args == () and events[0].return_id is None


def test_non_increasing_seq_is_reported():
    mk = lambda seq: json.dumps({
        "seq": seq, "object_id": "o", "class_name": MD, "method_name": "update", "args": ["?"],
    })
    events, diags = parse_trace_lines([mk(2), mk(2)])
    assert len(events) == 1
    assert any("does not increase" in d.message for d in diags)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_field = st.one_of(_json_values, st.integers(), st.text(max_size=8),
                   st.lists(st.one_of(st.integers(), st.text(max_size=3),
                                      st.fixed_dictionaries({"ref": _json_values})), max_size=3))
_records = st.fixed_dictionaries({}, optional={
    name: _field for name in ("seq", "object_id", "class_name", "method_name", "args", "return_id")
})
# Records with the required fields well typed, so the argument checks are reached.
_typed_records = st.fixed_dictionaries(
    {"seq": st.integers(), "object_id": st.text(), "class_name": st.text(),
     "method_name": st.text()},
    optional={"args": st.lists(st.one_of(st.integers(), st.text(max_size=3), _json_values,
                                         st.fixed_dictionaries({"ref": _json_values}))),
              "return_id": st.none() | st.text()},
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _json_values.map(json.dumps), _records.map(json.dumps),
                 _typed_records.map(json.dumps)))
@example("[" * 100_000)
@example('{"seq": ' * 100_000)
def test_any_trace_line_gives_an_event_or_a_located_diagnostic(line):
    events, diags = parse_trace_lines([line], "t.jsonl")
    if not line.strip(" \t\r\n"):
        assert events == [] and diags == []
        return
    assert len(events) + len(diags) == 1
    for diag in diags:
        assert (diag.path, diag.line, diag.column) == ("t.jsonl", 1, 1)
        assert diag.message.startswith("malformed trace line: ")


def test_only_json_whitespace_surrounds_a_trace_line():
    record = {"seq": 1, "object_id": "o", "class_name": MD, "method_name": "digest"}
    events, diags = parse_trace_lines([json.dumps(record) + " \x1c", " \t" + json.dumps(record)
                                       + "\r\n", "\u2028", "\x85"], "t.jsonl")
    assert [e.seq for e in events] == [1]
    assert [d.render() for d in diags] == [
        "t.jsonl:1:1: error: malformed trace line: Extra data: line 1 column 100 (char 99)",
        "t.jsonl:3:1: error: malformed trace line: Expecting value: line 1 column 1 (char 0)",
        "t.jsonl:4:1: error: malformed trace line: Expecting value: line 1 column 1 (char 0)",
    ]


# Records that parse_trace_lines turns into an event when they stand alone.
_event_records = st.fixed_dictionaries(
    {"seq": st.integers(), "object_id": st.text(), "class_name": st.text(),
     "method_name": st.text()},
    optional={"args": st.lists(st.one_of(st.integers(), st.text(),
                                         st.builds(lambda ref: {"ref": ref}, st.text()))),
              "return_id": st.none() | st.text()},
)
_around = st.text(st.sampled_from(" \t\r\n\x0b\x0c\x1c\x85\u2028\u3000\ufeff\ud800{}[],0\"")
                  | st.characters(), max_size=4)


@settings(max_examples=300, deadline=None)
@given(_around, _event_records, _around, st.booleans())
@example("\ufeff", {"seq": 1, "object_id": "o", "class_name": "C", "method_name": "m"}, "", True)
@example("\ufeff \t", {"seq": 1, "object_id": "o", "class_name": "C", "method_name": "é"}, "",
         False)
def test_a_line_is_an_event_exactly_when_json_accepts_it(before, record, after, ascii_only):
    line = before + json.dumps(record, ensure_ascii=ascii_only) + after
    # A byte-order mark is skipped where it starts the trace, and only there.
    for lines, text in (([line], line.removeprefix("\ufeff")), (["", line], line)):
        try:
            accepted = json.loads(text) == record
        except ValueError:
            accepted = False
        events, diags = parse_trace_lines(lines, "t.jsonl")
        assert len(events) == accepted and len(diags) == (not accepted), lines


def _outcome(decode, text):
    """A decoder's value, or the type and text of what it raised."""
    try:
        return "value", repr(decode(text))
    except Exception as exc:
        return type(exc), str(exc)


# Malformed lines that, joined with "," into one array, decode as one object
# per line; the first three also pass a check on their first and last
# characters and on bracket counts.
_SPLIT_OBJECT_LINES = (
    '{"x":"]}","a":[{"b":1}', '{"c":"{["}]}', '{"d":1},{"e":2}', '{"a":1},{"b":[2', "3]}",
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _json_values.map(json.dumps),
                 _json_values.map(lambda v: json.dumps(v, ensure_ascii=False)),
                 _records.map(json.dumps),
                 st.lists(_json_values.map(json.dumps), min_size=2, max_size=3).map(",".join)))
@example("[" * 100_000)
@example("\ufeff{}")
@example('{"a": NaN, "b": -Infinity}')
@example('"\\udce9"')
def test_decode_agrees_with_json_loads(text):
    text = text.strip()
    assert _outcome(_decode, text) == _outcome(json.loads, text)


@pytest.mark.parametrize("line", _SPLIT_OBJECT_LINES)
def test_decode_agrees_with_json_loads_on_split_objects(line):
    assert _outcome(_decode, line) == _outcome(json.loads, line)


def test_split_object_lines_are_each_malformed():
    events, diags = parse_trace_lines(_SPLIT_OBJECT_LINES, "t.jsonl")
    assert events == []
    assert [d.line for d in diags] == [1, 2, 3, 4, 5]


def test_undecodable_byte_makes_the_line_malformed():
    # load_trace keeps a byte that is not UTF-8 as a lone surrogate, which the
    # JSON scanner accepts inside a string.
    good = json.dumps({"seq": 2, "object_id": "o", "class_name": MD, "method_name": "digest"})
    bad = good.replace("digest", "caf\udce9").replace('"seq": 2', '"seq": 1')
    events, diags = parse_trace_lines([bad, good], "t.jsonl")
    assert [e.seq for e in events] == [2]
    assert [d.render() for d in diags] == [
        "t.jsonl:1:1: error: malformed trace line: byte 0xe9 is not valid UTF-8"
    ]


def test_records_compare_by_type_and_fields():
    event = TraceEvent(1, "o", MD, "digest")
    assert event == TraceEvent(1, "o", MD, "digest", (), None)
    assert event != TraceEvent(2, "o", MD, "digest")
    assert hash(Ref("k")) == hash(Ref("k")) and Ref("k") != "k"
    assert len({Violation("order", "o", None, MD, "m"), Violation("order", "o", None, MD, "m")}) == 1
    assert repr(Ref("k")) == "Ref(id='k')"
    assert repr(event) == (
        "TraceEvent(seq=1, object_id='o', class_name='java.security.MessageDigest', "
        "method_name='digest', args=(), return_id=None)"
    )
    assert not hasattr(event, "__dict__")

    # Model nodes: the type takes part in equality, where a record came from does not.
    assert Star(Atom("a")) != Plus(Atom("a"))
    here = parse_crysl(SourceFile.for_text(MESSAGEDIGEST_RULE, "crysl", "here.crysl"))
    there = parse_crysl(SourceFile.for_text("\n\n" + MESSAGEDIGEST_RULE, "crysl", "there.crysl"))
    assert here.loc == Loc("here.crysl", 1, 1) and Loc("there.crysl", 1, 1) != here.loc
    assert (here.loc, here.order_loc) != (there.loc, there.order_loc)
    atom_here, atom_there = Atom("a", Loc("here.crysl", 1, 1)), Atom("a", Loc("there.crysl", 9, 9))
    for left, right in ((here, there), (atom_here, atom_there)):
        assert left == right and hash(left) == hash(right) and repr(left) == repr(right)

    member = Membership("a", LiteralSet({"x"}), Loc("here.crysl", 3, 4))
    changed = member.replace(var="b")
    assert changed is not member and changed == Membership("b", LiteralSet({"x"}))
    assert (member.var, member.loc) == ("a", Loc("here.crysl", 3, 4))
    assert changed.loc == Loc("here.crysl", 3, 4)
    with pytest.raises(TypeError):
        member.replace(colour="red")
    assert not any(hasattr(node, "__dict__") for node in (here, member, atom_here))


# ---------------------------------------------------------------------------
# Memory: what a trace repeats is held once
# ---------------------------------------------------------------------------

MEMORY_REPLICAS = 40
# tracemalloc peak of load_trace plus check_trace, in bytes per event, over
# MEMORY_REPLICAS replicas. Sharing values and finding messages and reading
# the file line by line took it from 765 to 449 (Python 3.11.7); keeping
# each object's run in one slot-indexed list and sharing argument tuples took
# it from 468 to 339. The bound lies between the last two.
PEAK_BYTES_PER_EVENT = 400


# tracemalloc peak of check_trace alone, in bytes per ruled object, over
# MEMORY_REPLICAS replicas. Keeping a run's bindings and judged signatures in
# one slot-indexed list, keyed by object id per rule, took it from 745 to 352
# (Python 3.11.7); the bound lies between the two.
PEAK_BYTES_PER_OBJECT = 550
RULED_OBJECTS_PER_REPLICA = 61


def replicated_trace(corpus_dir, replicas: int) -> list[str]:
    """The jca-android traces, one replica after another, every object id,
    return id and reference renamed per replica and ``seq`` renumbered."""
    template = [
        json.loads(line)
        for path in sorted((corpus_dir / "traces" / "jca-android").glob("*.jsonl"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]

    def fresh(value, suffix):
        return {"ref": value["ref"] + suffix} if isinstance(value, dict) else value

    lines = []
    for replica in range(replicas):
        suffix = f"_r{replica}"
        for record in template:
            record = dict(record, seq=len(lines) + 1, object_id=record["object_id"] + suffix,
                          args=[fresh(arg, suffix) for arg in record.get("args", [])])
            if record.get("return_id") is not None:
                record["return_id"] += suffix
            lines.append(json.dumps(record))
    return lines


@pytest.fixture(scope="module")
def android_trace(corpus_dir, tmp_path_factory):
    config = parse_config(SourceFile.from_path(corpus_dir / "jca-android" / "bsi25plus.conf"))
    rules = compile_rules([spec for _, spec in run_build(config).generated])
    path = tmp_path_factory.mktemp("replicas") / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in replicated_trace(corpus_dir, MEMORY_REPLICAS)),
                    encoding="utf-8")
    return rules, path


def test_equal_trace_values_are_one_object(android_trace):
    _, path = android_trace
    events, diags = load_trace(path)
    assert not diags
    replica_size = len(events) // MEMORY_REPLICAS
    first, second = events[:replica_size], events[replica_size:2 * replica_size]
    assert all(a.class_name is b.class_name and a.method_name is b.method_name
               for a, b in zip(first, second))
    strings, refs, arg_lists = {}, {}, {}
    for event in events:
        values = [event.object_id, event.class_name, event.method_name, event.return_id]
        for value in values + list(event.args):
            if isinstance(value, Ref):
                assert refs.setdefault(value, value) is value
            elif isinstance(value, str):
                assert strings.setdefault(value, value) is value
        if not any(isinstance(value, Ref) for value in event.args):
            assert arg_lists.setdefault(event.args, event.args) is event.args
    assert len(refs) > 100 and any(v.id is strings.get(v.id) for v in refs)
    assert len(arg_lists) > 10 and any(len(args) > 1 for args in arg_lists)


def test_parse_and_check_peak_memory_per_event(android_trace):
    rules, path = android_trace
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        events, _ = load_trace(path)
        result = check_trace(rules, events)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert len(result.violations) == MEMORY_REPLICAS * 43  # 36 + 3 + 2 + 2 per replica
    assert peak / len(events) < PEAK_BYTES_PER_EVENT, peak / len(events)


def test_check_peak_memory_per_object(android_trace):
    rules, path = android_trace
    events, _ = load_trace(path)
    objects = {(e.object_id, e.class_name) for e in events if e.class_name in rules}
    assert len(objects) == MEMORY_REPLICAS * RULED_OBJECTS_PER_REPLICA
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        check_trace(rules, events)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak / len(objects) < PEAK_BYTES_PER_OBJECT, peak / len(objects)


def test_runs_and_stores_are_freed_before_the_findings_are_sorted(android_trace, corpus_dir):
    """The sort's key tuples take the memory of the runs, not memory on top
    of it: at each ``sorted``/``sort`` that ``check_trace`` calls, count the
    runs alive, but for the last one, which its loop variable still names,
    and see which of its stores hold anything."""
    rules, _ = android_trace
    events, _ = parse_trace_lines(replicated_trace(corpus_dir, 1))
    body = inspect.unwrap(check_trace).__code__
    seen = []

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code is body and arg.__name__ in ("sorted", "sort"):
            stores = [frame.f_locals[name] for name in ("predicates", "pending_requires", "messages")]
            last = frame.f_locals.get("run")
            runs = [o for o in gc.get_objects() if type(o) is _ObjectRun and o is not last]
            seen.append((arg.__name__, len(runs), [len(store) > 0 for store in stores]))

    sys.setprofile(profile)
    try:
        result = check_trace(rules, events)
    finally:
        sys.setprofile(None)
    assert len(result.violations) == 43
    assert seen == [("sort", 0, [False, False, False])]  # the findings, once
    assert issubclass(_ObjectRun, list) and not hasattr(_ObjectRun(), "__dict__")


# ---------------------------------------------------------------------------
# The cyclic garbage collector is paused while a trace is parsed and checked
# ---------------------------------------------------------------------------


@pytest.fixture()
def collector_state():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def test_parse_and_check_pause_the_collector_and_restore_its_state(android_trace,
                                                                   collector_state):
    rules, path = android_trace
    lines = path.read_text(encoding="utf-8").splitlines()[:50]
    assert inspect.signature(parse_trace_lines).parameters.keys() == {"lines", "path"}
    assert check_trace.__name__ == "check_trace" and "Events are evaluated" in check_trace.__doc__
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        during = []

        def read():
            for line in lines:
                during.append(gc.isenabled())
                yield line

        parse_trace_lines(read())
        assert (set(during), gc.isenabled()) == ({False}, enabled)
        check_trace(rules, load_trace(path)[0])
        assert gc.isenabled() is enabled
        with pytest.raises(TypeError):
            parse_trace_lines(None)
        assert gc.isenabled() is enabled
        with pytest.raises(AttributeError):
            check_trace(rules, [object()])
        assert gc.isenabled() is enabled
        with pytest.raises(IsADirectoryError):
            load_trace(path.parent)
        assert gc.isenabled() is enabled


def test_no_collection_starts_while_a_trace_is_parsed_or_checked(android_trace, collector_state):
    rules, path = android_trace
    bodies = {inspect.unwrap(function).__code__ for function in (parse_trace_lines, check_trace)}
    inside = []

    def record(phase, info):
        frame = sys._getframe(1)
        while phase == "start" and frame is not None:
            if frame.f_code in bodies:
                inside.append((frame.f_code.co_name, info["generation"]))
                return
            frame = frame.f_back

    gc.enable()
    gc.callbacks.append(record)
    try:
        check_trace(rules, load_trace(path)[0])
    finally:
        gc.callbacks.remove(record)
    assert inside == []


def test_parse_and_check_leave_no_cyclic_garbage(android_trace, corpus_dir):
    """With the collector paused, reference counting alone must free what the
    two calls drop, on every path: each finding kind, a warning and each
    trace diagnostic."""
    rules, _ = android_trace
    event = {"seq": 1000, "object_id": "md_unknown", "class_name": MD,
             "method_name": "getInstance", "args": ["?"]}  # an undecided constraint
    lines = replicated_trace(corpus_dir, 1) + [json.dumps(line, ensure_ascii=False) for line in (
        event,
        dict(event, seq=1001, class_name=5),
        dict(event, seq=1002, args=[True]),
        dict(event, seq=1003, args=[1.5]),
        dict(event, seq=999),
        {key: value for key, value in event.items() if key != "method_name"},
        [event],
        dict(event, seq=1004, object_id="caf\udce9"),
    )] + ["not json"]
    checked = []

    def parse_and_check():
        events, diags = parse_trace_lines(lines, "t.jsonl")
        checked.extend((check_trace(rules, events), diags))

    garbage = cyclic_garbage(parse_and_check)
    result, diags = checked
    assert {v.kind for v in result.violations} == set(VIOLATION_KINDS)
    assert [w.message for w in result.warnings if "md_unknown" in w.message] == [
        "seq 1000: md_unknown: cannot decide "
        "'algorithm in {\"SHA-256\", \"SHA-384\", \"SHA-512\"}' (unknown value)"
    ]
    assert [d.message.removeprefix("malformed trace line: ") for d in diags] == [
        "'class_name' must be a string, not an integer",
        "boolean arguments are not part of the trace format",
        "unsupported argument value 1.5",
        "seq 999 does not increase (previous was 1000)",
        "'method_name'",
        "trace line must be a JSON object",
        "byte 0xe9 is not valid UTF-8",
        "Expecting value: line 1 column 1 (char 0)",
    ]
    assert len(garbage) == 0, garbage[:5]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def test_empty_report_shape():
    text = report([], "json")
    payload = json.loads(text)
    assert payload["total"] == 0
    assert payload["violations"] == []
    assert set(payload["by_kind"]) == {"constraint", "incomplete", "missing-predicate", "order"}


def test_report_totals_add_up(digest_rules):
    trace = (
        digest_trace("MD5")
        + digest_trace("SHA-256", obj="md2", finish=False, start=10)
        + digest_trace("SHA-1", obj="md3", start=20)
    )
    violations = check_trace(digest_rules, trace).violations
    payload = json.loads(report(violations, "json"))
    assert payload["total"] == 3
    assert sum(payload["by_kind"].values()) == 3
    assert sum(payload["by_rule"].values()) == 3


def test_report_is_deterministic(digest_rules):
    violations = check_trace(digest_rules, digest_trace("MD5")).violations
    assert report(violations, "json") == report(violations, "json")
    assert report(violations, "table") == report(violations, "table")


def test_table_report_mentions_each_violation(digest_rules):
    violations = check_trace(digest_rules, digest_trace("MD5")).violations
    table = report(violations, "table")
    assert "constraint" in table
    assert "total: 1" in table


_awkward_text = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=12),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u2028", "\ud800", "\udce9",
                     "é", "\U0001f600", ""]),
)
_violations = st.builds(
    Violation, st.one_of(st.sampled_from(VIOLATION_KINDS), _awkward_text), _awkward_text,
    st.none() | st.integers(), _awkward_text, _awkward_text,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_violations, max_size=6))
@example([])
def test_json_report_matches_the_reference_report(violations):
    assert report(violations, "json") == oracles.reference_report(violations)


@settings(max_examples=100, deadline=None)
@given(st.lists(_violations, max_size=6))
def test_table_report_encodes_as_utf8(violations):
    table = report(violations, "table")
    table.encode("utf-8")
    assert table.endswith(f"total: {len(violations)}\n")
    assert table.count("\n") == len(violations) + 2  # a header and a footer


def test_table_keeps_an_object_id_with_a_line_break_on_its_row():
    table = report([Violation("incomplete", "md\n1", None, MD, "object discarded")], "table")
    assert table.splitlines()[1:] == [
        f"incomplete  md\\n1   end  {MD}  object discarded", "total: 1",
    ]


def test_table_keeps_an_undeclared_method_with_a_line_break_on_its_row(digest_rules):
    violations = check_trace(digest_rules, [ev(1, "md1", MD, "a\nb\x1c")]).violations
    assert [v.message for v in violations] == ["a\nb\x1c() is not a declared event"]
    assert report(violations, "table").splitlines()[1:] == [
        f"order  md1     1    {MD}  a\\nb\\u001c() is not a declared event", "total: 1",
    ]


def test_a_warning_writes_its_object_id_on_one_line(digest_rules):
    result = check_trace(digest_rules, [ev(1, "md\r\n1", MD, "getInstance", [UNKNOWN])])
    [warning] = result.warnings
    assert warning.message.startswith("seq 1: md\r\n1: cannot decide 'algorithm in {")
    assert "\n" not in warning.render()
    assert ": seq 1: md\\r\\n1: cannot decide 'algorithm in {" in warning.render()


@pytest.mark.parametrize("violations", [
    [],
    [Violation("order", "o", 1, MD, "m"), Violation("zz\n", "p\u00e9", None, "a.\"B\"", "x"),
     Violation("order", "q", 2, MD, "m")],
])
def test_json_report_head_is_laid_out_as_json_dumps_with_indent_2(violations):
    by_kind = dict.fromkeys(VIOLATION_KINDS, 0) | Counter(v.kind for v in violations)
    head = json.dumps({
        "total": len(violations),
        "by_kind": dict(sorted(by_kind.items())),
        "by_rule": dict(sorted(Counter(v.rule_class for v in violations).items())),
    }, indent=2)
    assert report(violations, "json").startswith(head[:-2] + ',\n  "violations": [')


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_report_leaves_no_cyclic_garbage(digest_rules, fmt):
    violations = check_trace(digest_rules, digest_trace("MD5") + digest_trace(
        "SHA-256", obj="md2", finish=False, start=10)).violations
    assert len(violations) == 2
    assert cyclic_garbage(lambda: report(violations, fmt)) == []
    assert cyclic_garbage(lambda: report([], fmt)) == []


def test_report_refuses_an_unknown_format():
    with pytest.raises(ValueError) as err:
        report([], "xml")
    assert err.value.args == ("unknown report format 'xml'",)


def test_compile_rules_refuses_two_rules_for_one_class():
    spec = parse_crysl(SourceFile.for_text(MESSAGEDIGEST_RULE, "crysl"))
    with pytest.raises(ValueError) as err:
        compile_rules([spec, spec])
    assert err.value.args == (f"duplicate rule for class '{MD}'",)


@pytest.mark.parametrize("count", [255, 256, 257, 513])
def test_json_report_of_many_violations_matches_the_reference_report(count):
    violations = [Violation(VIOLATION_KINDS[i % 4], f"o{i}", None if i % 5 == 0 else i, MD,
                            f"message {i % 7}") for i in range(count)]
    assert report(violations, "json") == oracles.reference_report(violations)


# ---------------------------------------------------------------------------
# Rule-set sensitivity on the bundled standards corpus
# ---------------------------------------------------------------------------


def test_blake_usage_clean_only_under_ecrypt(corpus_dir):
    rules = {}
    for name in ("fips", "bsi", "ecrypt"):
        config = parse_config(SourceFile.from_path(corpus_dir / "standards" / f"{name}.conf"))
        result = run_build(config)
        rules[name] = compile_rules([spec for _, spec in result.generated])

    blake, diags = load_trace(corpus_dir / "traces" / "standards" / "blake_digest.jsonl")
    assert not diags
    md5, _ = load_trace(corpus_dir / "traces" / "standards" / "md5_digest.jsonl")

    blake_counts = {name: len(check_trace(rs, blake).violations) for name, rs in rules.items()}
    assert blake_counts == {"fips": 1, "bsi": 1, "ecrypt": 0}
    md5_counts = {name: len(check_trace(rs, md5).violations) for name, rs in rules.items()}
    assert md5_counts == {"fips": 1, "bsi": 1, "ecrypt": 1}
