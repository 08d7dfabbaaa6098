from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from cryslkit import (
    SourceFile,
    TraceEvent,
    check_trace,
    compile_rules,
    match_event,
    parse_crysl,
    parse_trace_lines,
    report,
    run_build,
    parse_config,
)
from cryslkit.diagnostics import Loc
from cryslkit.model import AbstractSpec, Atom, CrySLSpec, LiteralSet, Membership, Plus, Star
from cryslkit.tracecheck import VIOLATION_KINDS, Ref, UNKNOWN, Violation, _decode

import oracles
from conftest import MESSAGEDIGEST_RULE

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
# match_event
# ---------------------------------------------------------------------------


def test_match_by_class_method_and_arity(digest_rules):
    rule, label = match_event(digest_rules, ev(1, "o", MD, "getInstance", ["SHA-256"]))
    assert rule is not None and label == "g1"
    rule, label = match_event(digest_rules, ev(1, "o", MD, "getInstance", ["SHA-256", "BC"]))
    assert label == "g2"


def test_unruled_class_is_ignored(digest_rules):
    rule, label = match_event(digest_rules, ev(1, "o", "java.util.List", "add", ["x"]))
    assert rule is None and label is None


def test_undeclared_method_on_ruled_class_feeds_sink(digest_rules):
    rule, label = match_event(digest_rules, ev(1, "o", MD, "reset", []))
    assert rule is not None and label is None
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


def test_unknown_values_warn_instead_of_violating(digest_rules):
    events = [
        ev(1, "md1", MD, "getInstance", [UNKNOWN], ret="md1"),
        ev(2, "md1", MD, "update", [UNKNOWN]),
        ev(3, "md1", MD, "digest", [], ret="out1"),
    ]
    result = check_trace(digest_rules, events)
    assert result.violations == []
    assert any("cannot decide" in w for w in result.warnings)


def test_constraint_violations_cite_checkable_events(digest_rules):
    trace = digest_trace("MD5") + digest_trace("SHA-1", obj="md2", start=10)
    result = check_trace(digest_rules, trace)
    by_seq = {e.seq: e for e in trace}
    for violation in result.violations:
        assert violation.kind == "constraint"
        cited = by_seq[violation.seq]
        rule = digest_rules.rules[violation.rule_class]
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
    assert result.warnings == [
        "seq 1: f1: cannot decide 'h in {\"h1\"}' (unknown value)",
        "seq 2: f1: cannot decide 'mode in {\"w\"} => h in {\"h1\"}' (unknown value)",
    ]
    expected = oracles.reference_check_trace(rules, trace)
    assert (result.violations, result.warnings) == (expected.violations, expected.warnings)


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
        ("args", "SHA", "'args' must be an array, not a string"),
        ("return_id", 5, "'return_id' must be a string or null, not an integer"),
    ],
)
def test_wrong_field_type_is_reported_and_skipped(field, value, message):
    record = {"seq": 1, "object_id": "o", "class_name": MD, "method_name": "digest", "args": []}
    record[field] = value
    events, diags = parse_trace_lines([json.dumps(record)], "t.jsonl")
    assert events == []
    assert [d.render() for d in diags] == [f"t.jsonl:1:1: error: malformed trace line: {message}"]


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
    if not line.strip():
        assert events == [] and diags == []
        return
    assert len(events) + len(diags) == 1
    for diag in diags:
        assert (diag.path, diag.line, diag.column) == ("t.jsonl", 1, 1)
        assert diag.message.startswith("malformed trace line: ")


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
    assert (here.source_path, here.loc, here.order_loc) != (
        there.source_path, there.loc, there.order_loc)
    atom_here, atom_there = Atom("a", Loc(1, 1)), Atom("a", Loc(9, 9))
    for left, right in ((here, there), (atom_here, atom_there)):
        assert left == right and hash(left) == hash(right) and repr(left) == repr(right)
    assert AbstractSpec._fields == CrySLSpec._fields + ("type_params",)

    member = Membership("a", LiteralSet({"x"}), Loc(3, 4))
    changed = member.replace(var="b")
    assert changed is not member and changed == Membership("b", LiteralSet({"x"}))
    assert (member.var, member.loc) == ("a", Loc(3, 4)) and changed.loc == Loc(3, 4)
    with pytest.raises(TypeError):
        member.replace(colour="red")
    assert not any(hasattr(node, "__dict__") for node in (here, member, atom_here))


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


# ---------------------------------------------------------------------------
# Rule-set sensitivity on the bundled standards corpus
# ---------------------------------------------------------------------------


def test_blake_usage_clean_only_under_ecrypt(corpus_dir):
    from cryslkit import load_trace

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
