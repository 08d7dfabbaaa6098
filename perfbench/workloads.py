"""The four benchmark workloads.

Each workload prepares its inputs in a fresh work directory (``setup``) and
then runs rounds of operations. A round is a fixed amount of work, so counts
taken over a round repeat exactly; the runner repeats rounds until the run's
time is up. Every operation's output is checked against a reference that the
code under measurement did not produce, outside the timed region.

Calls go through module attributes (``parsing.parse_config``), never through
names bound at import, so the wrappers of a traced round see them.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from cryslkit import emitter, model, parsing, preprocessor, tracecheck
from cryslkit.model import Alt, Atom, Seq, Star
from cryslkit.parsing import SourceFile

import gen

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
ANDROID_CONFIGS = (
    "base0108", "base0116", "base25plus",
    "bsi0108", "bsi0116", "bsi25plus",
    "cognicrypt0108", "cognicrypt0116", "cognicrypt25plus",
)
CLI_TIMEOUT_S = 60


@dataclass
class Sample:
    seconds: float
    items: int
    ok: bool
    kind: str = ""  # which operation of the round


@dataclass
class Paths:
    checkout: Path
    seed: int

    @property
    def corpus(self) -> Path:
        return self.checkout / "corpus"

    @property
    def golden(self) -> Path:
        return self.checkout / "tests" / "golden"

    @property
    def work_root(self) -> Path:
        return self.checkout / ".perfbench-work"

    def child_env(self) -> dict:
        return dict(os.environ, PYTHONPATH=str(self.checkout / "src"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def copy_corpus(source: Path, target: Path) -> Path:
    """A copy of the corpus without any earlier build output."""
    shutil.copytree(source, target, ignore=shutil.ignore_patterns("_generated"))
    return target


def build_config(conf: Path):
    """One configuration build: ``parse_config`` -> ``run_build`` -> ``emit``."""
    config = parsing.parse_config(SourceFile.from_path(conf))
    result = preprocessor.run_build(config)
    return result, emitter.emit(result, conf.parent / config.out)


def reference_loop(steps: int) -> float:
    """Seconds of a fixed pure-Python loop of dict, tuple and str work.

    Its memory stays a few hundred kB, so it does not move ``peak_rss_mib``.
    """
    start = time.perf_counter()
    table, total = {}, 0
    for i in range(steps):
        table[i & 4095] = (i, str(i))
        total += len(table[i & 4095][1])
    return time.perf_counter() - start


def trace_shape(lines: list[str], ruled_classes: set[str]) -> tuple[int, int]:
    """Events of classes without a rule, and the most objects live at once.

    An object (id and class, as the checker keys it) is live from its first
    event to its last.
    """
    first: dict[tuple, int] = {}
    last: dict[tuple, int] = {}
    ignored = 0
    for position, line in enumerate(lines):
        record = json.loads(line)
        if record["class_name"] not in ruled_classes:
            ignored += 1
            continue
        key = (record["object_id"], record["class_name"])
        first.setdefault(key, position)
        last[key] = position
    delta = [0] * (len(lines) + 1)
    for key, position in first.items():
        delta[position] += 1
        delta[last[key] + 1] -= 1
    live = peak = 0
    for step in delta:
        live += step
        peak = max(peak, live)
    return ignored, peak


class Workload:
    name = ""
    item = ""  # what the throughput counts
    aliases: dict[str, str] = {}  # metric names of the benchmark doc -> generic names
    min_samples = 100  # operations per run: at least ten beyond the 90th percentile
    rss_children = False  # peak RSS of the benchmark process, or of its largest child
    # The floor: a fixed task timed after every measured round, about as long
    # as an operation, and the seconds it takes on a quiet stretch of the
    # 2-vCPU host the bounds were set on. Operation times are scaled by
    # floor_ref_s over the run's 10th-percentile floor (see README.md).
    floor_steps = 20_000
    floor_ref_s = 0.0048

    def __init__(self, paths: Paths):
        self.paths = paths
        self.rng = random.Random(paths.seed)
        self.problems: list[str] = []
        self.work: Path | None = None
        self.floors: list[float] = []

    def setup(self) -> None:
        self.paths.work_root.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.paths.work_root))
        self.prepare()

    def prepare(self) -> None:
        raise NotImplementedError

    def floor(self) -> float:
        return reference_loop(self.floor_steps)

    def round(self, tracer=None) -> list[Sample]:
        raise NotImplementedError

    def final_check(self) -> None:
        """Checks that need not run after every operation."""

    def trace_extras(self) -> dict[str, float]:
        """Per-layer values the benchmark computes itself, per round."""
        return {}

    def close(self) -> None:
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            self.work = None

    def _op(self, tracer, label: str, items: int, fn, check) -> Sample:
        """Time ``fn`` as one operation; ``check(output)`` names a problem or None."""
        try:
            if tracer is None:
                start = time.perf_counter()
                output = fn()
                seconds = time.perf_counter() - start
            else:
                with tracer.operation(label) as timing:
                    output = fn()
                seconds = timing["seconds"]
            problem = check(output)
        except Exception:  # an operation that raises counts as failed; the run goes on
            problem = traceback.format_exc(limit=4)
            seconds = 0.0
        if problem is not None:
            self.problems.append(f"{self.name} {label}: {problem}")
            return Sample(seconds, items, False, label)
        return Sample(seconds, items, True, label)


class FamilyBuild(Workload):
    """Every bundled configuration built in place, round after round."""

    name = "family-build"
    item = "rules"
    aliases = {"build_rules_per_s": "throughput_per_s",
               "build_ms_p50": "op_ms_p50", "build_ms_p90": "op_ms_p90"}
    golden_config = "bouncycastle/digests.conf"

    def prepare(self) -> None:
        # config path -> {emitted file name -> SHA-256}, recorded from the seed
        self.manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
        self.goldens = {
            name: (self.paths.golden / name).read_bytes() for name in ("SHA256.crysl", "SHA512.crysl")
        }
        self.corpus = copy_corpus(self.paths.corpus, self.work / "corpus")
        self.configs = sorted(conf.relative_to(self.corpus).as_posix()
                              for conf in self.corpus.rglob("*.conf"))
        if self.configs != sorted(self.manifest):
            raise RuntimeError(f"configs {self.configs} differ from the manifest's")
        self.written: dict[str, list[Path]] = {}
        self.round()  # warm-up: first-call costs and output directories

    def _check(self, conf: str, output) -> str | None:
        result, written = output
        self.written[conf] = written
        errors = [d.render() for d in result.diagnostics if d.severity.name == "ERROR"]
        if errors:
            return f"build errors: {errors[:3]}"
        expected = self.manifest[conf]
        if sorted(p.name for p in written) != sorted(expected):
            return f"wrote {[p.name for p in written]}, the manifest lists {sorted(expected)}"
        for path in written:
            data = path.read_bytes()
            if sha256(data) != expected[path.name]:
                return f"{path.name} differs from the manifest"
            if conf == self.golden_config and path.name in self.goldens \
                    and data != self.goldens[path.name]:
                return f"{path.name} differs from tests/golden"
        return None

    def round(self, tracer=None) -> list[Sample]:
        order = list(self.configs)
        self.rng.shuffle(order)
        return [
            self._op(tracer, conf, len(self.manifest[conf]),
                     lambda conf=conf: build_config(self.corpus / conf),
                     lambda output, conf=conf: self._check(conf, output))
            for conf in order
        ]

    def final_check(self) -> None:
        """Every emitted file re-parses and re-emits to the same bytes."""
        for conf in self.configs:
            for path in self.written.get(conf, ()):
                text = path.read_text(encoding="utf-8")
                spec = parsing.parse_crysl(SourceFile.for_text(text, "crysl", str(path)))
                if emitter.pretty_print(spec) != text:
                    self.problems.append(f"{self.name}: {path.name} of {conf} does not re-emit "
                                         "to the same bytes")


# Findings of one jca-android replica against bsi25plus, checked by hand
# against the bundled traces: 36 constraint, 3 incomplete, 2 missing-predicate
# and 2 order findings.
REPLICA_FINDINGS = {"constraint": 36, "incomplete": 3, "missing-predicate": 2, "order": 2}


class TraceCheck(Workload):
    """About 20k events, interleaved replicas of the jca-android traces.

    A check lasts about a third of a second, short enough that some of a
    run's fifty-odd checks fall in the host's fast stretches; a 200k-event
    check averages the host's speed over five seconds.
    """

    name = "trace-check"
    item = "events"
    aliases = {"check_events_per_s": "throughput_per_s"}
    min_samples = 1
    replicas = 117
    floor_steps = 400_000
    floor_ref_s = 0.096
    window = 64

    def prepare(self) -> None:
        self.lines = None  # one copy of the trace at a time, so the check sets the peak RSS
        template = gen.replica_template(self.paths.corpus)
        self.lines = gen.interleaved_trace(template, self.replicas, self.window, self.paths.seed)
        with (self.work / "trace.jsonl").open("w", encoding="utf-8") as trace:
            trace.writelines(line + "\n" for line in self.lines)
        conf = self.paths.corpus / "jca-android" / "bsi25plus.conf"
        result = preprocessor.run_build(parsing.parse_config(SourceFile.from_path(conf)))
        self.specs = [spec for _, spec in result.generated]
        self.rules = tracecheck.compile_rules(self.specs)
        self.expected = {kind: self.replicas * n for kind, n in REPLICA_FINDINGS.items()}
        self.shape = None
        warm = gen.interleaved_trace(template, 1, 1, self.paths.seed)
        self._op(None, "warm-up", len(warm), lambda: self._check_trace(warm),
                 lambda output: self._check(output, REPLICA_FINDINGS))

    def _check_trace(self, lines):
        events, diags = tracecheck.parse_trace_lines(lines)
        result = tracecheck.check_trace(self.rules, events)
        return diags, tracecheck.report(result.violations, "json")

    @staticmethod
    def _check(output, expected) -> str | None:
        diags, text = output
        if diags:
            return f"trace diagnostics: {[d.render() for d in diags[:3]]}"
        by_kind = json.loads(text)["by_kind"]
        if by_kind != expected:
            return f"findings {by_kind}, expected {expected}"
        return None

    def round(self, tracer=None) -> list[Sample]:
        return [self._op(tracer, "check", len(self.lines),
                         lambda: self._check_trace(self.lines),
                         lambda output: self._check(output, self.expected))]

    def trace_extras(self) -> dict[str, float]:
        if self.shape is None:
            self.shape = trace_shape(self.lines, {spec.class_name for spec in self.specs})
        ignored, peak = self.shape
        return {"tracecheck.events_ignored": ignored, "tracecheck.live_objects_peak": peak}


def _oracles(checkout: Path):
    """``tests/oracles.py`` of the checkout, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_oracles", checkout / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def order_tree(k: int):
    """The ORDER of ``gen.order_rule_text(k)``, built directly, not parsed."""
    either = Alt((Atom("e"), Atom("f")))
    return Seq((Star(either), Atom("e")) + (either,) * k)


class OrderWide(Workload):
    """Cold verdicts on rules with exponentially large DFAs."""

    name = "order-wide"
    item = "verdicts"
    aliases = {"order_verdict_ms_p50": "op_ms_p50", "order_verdict_ms_p90": "op_ms_p90"}
    widths = (8, 10, 12)
    objects = 30
    floor_steps = 200_000
    floor_ref_s = 0.048

    def prepare(self) -> None:
        self.cases = []
        for k in self.widths:
            rule = self.work / f"wide{k}.crysl"
            trace = self.work / f"wide{k}.jsonl"
            lines, words = gen.order_trace(k, self.objects, self.paths.seed)
            rule.write_text(gen.order_rule_text(k), encoding="utf-8")
            trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
            self.cases.append({
                "k": k, "path": str(rule), "words": words,
                "rule_text": rule.read_text(encoding="utf-8"),
                "trace_text": trace.read_text(encoding="utf-8"),
            })
        self.oracles = _oracles(self.paths.checkout)
        self.expected: dict[int, list] = {}
        case = self.cases[0]
        self._op(None, "warm-up", len(case["words"]), lambda: self._verdicts(case),
                 self._check_case(case))

    def _verdicts(self, case):
        spec = parsing.parse_crysl(SourceFile.for_text(case["rule_text"], "crysl", case["path"]))
        diags = model.validate_spec(spec) + model.validate_rule_set([spec])
        rules = tracecheck.compile_rules([spec])
        events, trace_diags = tracecheck.parse_trace_lines(case["trace_text"].splitlines())
        result = tracecheck.check_trace(rules, events)
        return diags + trace_diags, tracecheck.report(result.violations, "json")

    def _expected(self, case) -> list:
        """Findings the derivative oracle predicts, one per object not accepted."""
        k = case["k"]
        if k not in self.expected:
            verdict = self.oracles.derivative_verdict
            tree = order_tree(k)
            found = []
            for oid, word in case["words"].items():
                kind, index = verdict(tree, [label for _, label in word])
                if kind == "rejected":
                    found.append(("order", oid, word[index][0]))
                elif kind == "incomplete":
                    found.append(("incomplete", oid, None))
            self.expected[k] = sorted(found, key=repr)
        return self.expected[k]

    def _check_case(self, case):
        def check(output) -> str | None:
            diags, text = output
            if diags:
                return f"diagnostics: {[d.render() for d in diags[:3]]}"
            found = sorted(
                ((v["kind"], v["object_id"], v["seq"]) for v in json.loads(text)["violations"]),
                key=repr,
            )
            if found != self._expected(case):
                return f"verdicts differ from the derivative oracle for k={case['k']}"
            return None
        return check

    def round(self, tracer=None) -> list[Sample]:
        order = list(self.cases)
        self.rng.shuffle(order)
        return [
            self._op(tracer, f"wide{case['k']}", len(case["words"]),
                     lambda case=case: self._verdicts(case), self._check_case(case))
            for case in order
        ]

    def trace_extras(self) -> dict[str, float]:
        ignored = peak = 0
        for case in self.cases:
            one, most = trace_shape(case["trace_text"].splitlines(), {gen.order_class(case["k"])})
            ignored += one
            peak = max(peak, most)
        return {"tracecheck.events_ignored": ignored, "tracecheck.live_objects_peak": peak}


class ColdCli(Workload):
    """Cold ``python -m cryslkit`` processes over a fixed mix of commands."""

    name = "cold-cli"
    item = "calls"
    aliases = {"cli_ms_p50": "op_ms_p50", "cli_ms_p90": "op_ms_p90"}
    rss_children = True
    # A cold call is mostly interpreter start-up, so the floor is a bare start.
    floor_ref_s = 0.050

    def commands(self) -> list[tuple[list[str], int]]:
        configs = [f"jca-android/{name}.conf" for name in ANDROID_CONFIGS]
        return [
            (["build", "jca-android/bsi25plus.conf", "--dry-run", "--json"], 0),
            (["build", "standards/fips.conf"], 0),
            (["check", "--rules", "standards/_generated/fips",
              "--trace", "traces/standards/md5_digest.jsonl", "--format", "json"], 1),
            (["validate", "jca-android/base/"], 0),
            (["fsm", "--rule", "standards/_generated/fips/MessageDigest.crysl", "--dot"], 0),
            (["metrics", "--meta", "jca-android", "--configs", *configs, "--json"], 0),
        ]

    def prepare(self) -> None:
        self.corpus = copy_corpus(self.paths.corpus, self.work / "corpus")
        self.env = self.paths.child_env()
        self.golden_metrics = json.loads((self.paths.golden / "jca_android_metrics.json").read_text())
        self.stdout_seen: dict[tuple, bytes] = {}
        self.spans_file = self.work / "spans.json"
        # warm-up, and the fips rules that `check` and `fsm` read
        self._op(None, "build", 1, lambda: self._run(["build", "standards/fips.conf"]),
                 lambda output: self._check(["build", "standards/fips.conf"], 0, output))

    def probe(self, code: str) -> float:
        """Wall time of ``python -c code`` under the child environment."""
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=self.env, cwd=self.corpus,
                       capture_output=True, timeout=CLI_TIMEOUT_S, check=True)
        return time.perf_counter() - start

    def _run(self, argv: list[str], launcher: bool = False):
        if launcher:
            self.spans_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "cli_launcher.py"), str(self.spans_file), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "cryslkit", *argv]
        return subprocess.run(cmd, env=self.env, cwd=self.corpus, capture_output=True,
                              timeout=CLI_TIMEOUT_S)

    def _check(self, argv: list[str], code: int, done) -> str | None:
        if done.returncode != code:
            return f"exit {done.returncode}, expected {code}: {done.stderr.decode()[-500:]}"
        first = self.stdout_seen.setdefault(tuple(argv), done.stdout)
        if done.stdout != first:
            return "stdout differs from an earlier run of the same command"
        if argv[0] == "metrics" and json.loads(done.stdout) != self.golden_metrics:
            return "metrics JSON differs from tests/golden/jca_android_metrics.json"
        if argv[0] == "check":
            by_kind = json.loads(done.stdout)["by_kind"]
            if by_kind != {"constraint": 1, "incomplete": 0, "missing-predicate": 0, "order": 0}:
                return f"check findings {by_kind}, expected exactly 1 constraint finding"
        return None

    def floor(self) -> float:
        return self.probe("pass")

    def round(self, tracer=None) -> list[Sample]:
        order = self.commands()
        self.rng.shuffle(order)
        samples = []
        for argv, code in order:
            def check(done, argv=argv, code=code):
                if tracer is not None:
                    child = json.loads(self.spans_file.read_text(encoding="utf-8"))
                    tracer.adopt(child["spans"], tracer.last_op)
                    tracer.counters.update(child["counters"])
                return self._check(argv, code, done)

            samples.append(self._op(tracer, " ".join(argv[:2]), 1,
                                    lambda argv=argv: self._run(argv, launcher=tracer is not None),
                                    check))
        return samples

    def trace_extras(self) -> dict[str, float]:
        """The interpreter floor and the import cost, from one probe each."""
        interp = self.probe("pass")
        imported = self.probe("import cryslkit")
        return {"cli.interp_ms": 1000 * interp, "cli.import_ms": 1000 * (imported - interp)}


WORKLOADS = {w.name: w for w in (FamilyBuild, TraceCheck, OrderWide, ColdCli)}
