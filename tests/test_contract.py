"""Byte contract of the command line.

Each run's exit code, stdout and stderr, with the corpus path made relative,
is hashed and compared with ``tests/golden/cli_outputs.json``. The runs are:

* ``build --json`` for each of the 14 bundled configurations, built in place;
* ``check --format json|table`` for every output directory against every
  bundled trace (308 runs);
* ``fsm`` and ``fsm --dot`` for each of the 81 emitted rules;
* ``metrics --json`` over jca-android with its nine configurations;
* ``validate`` on every source directory of the corpus.

The manifest records what the commands printed when it was generated; it
changes only with an intended output change, documented in
``docs/formats.md``. Regenerate it with::

    PYTHONPATH=src python tests/test_contract.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

from cryslkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_outputs.json"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _run(corpus: Path, argv: list[str]) -> tuple[str, str]:
    """The hash of one run and its stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    prefix = f"{corpus}/"
    record = json.dumps([code, out.getvalue().replace(prefix, ""),
                         err.getvalue().replace(prefix, "")])
    return hashlib.sha256(record.encode("utf-8", "surrogatepass")).hexdigest(), out.getvalue()


def _hash_run(corpus: Path, argv: list[str]) -> str:
    return _run(corpus, argv)[0]


def _relative(corpus: Path, path: Path | str) -> str:
    return Path(path).relative_to(corpus).as_posix()


def build_outputs(corpus: Path) -> tuple[dict[str, str], list[Path]]:
    """Build every configuration under ``corpus`` in place; the hash of each
    ``build --json`` run, keyed by ``build|<config>``, and the output dirs."""
    for generated in sorted(corpus.rglob("_generated")):
        shutil.rmtree(generated)  # only what this build emits is checked
    hashes = {}
    out_dirs = []
    for conf in sorted(corpus.rglob("*.conf")):
        hashes[f"build|{_relative(corpus, conf)}"], out = _run(corpus, ["build", str(conf), "--json"])
        out_dirs.append(Path(json.loads(out)["out"]))
    return hashes, out_dirs


def check_outputs(corpus: Path, out_dirs: list[Path]) -> dict[str, str]:
    """Hash each ``check`` run, keyed by ``check|<rules dir>|<trace>|<format>``."""
    traces = sorted((corpus / "traces").rglob("*.jsonl"))
    hashes = {}
    for rules in out_dirs:
        for trace in traces:
            for fmt in ("json", "table"):
                key = "|".join(("check", _relative(corpus, rules), _relative(corpus, trace), fmt))
                hashes[key] = _hash_run(corpus, ["check", "--rules", str(rules),
                                                 "--trace", str(trace), "--format", fmt])
    return hashes


def fsm_outputs(corpus: Path, out_dirs: list[Path]) -> dict[str, str]:
    """Hash ``fsm`` and ``fsm --dot`` for each emitted rule, keyed by
    ``fsm|<rule>`` and ``fsm --dot|<rule>``."""
    hashes = {}
    for rules in out_dirs:
        for rule in sorted(rules.glob("*.crysl")):
            hashes[f"fsm|{_relative(corpus, rule)}"] = _hash_run(corpus, ["fsm", "--rule", str(rule)])
            hashes[f"fsm --dot|{_relative(corpus, rule)}"] = _hash_run(
                corpus, ["fsm", "--rule", str(rule), "--dot"]
            )
    return hashes


def metrics_outputs(corpus: Path) -> dict[str, str]:
    """Hash ``metrics --json`` over jca-android and its nine configurations."""
    root = corpus / "jca-android"
    configs = [str(conf) for conf in sorted(root.glob("*.conf"))]
    argv = ["metrics", "--meta", str(root), "--configs", *configs, "--json"]
    return {"metrics --json|jca-android": _hash_run(corpus, argv)}


def validate_outputs(corpus: Path) -> dict[str, str]:
    """Hash ``validate`` on every directory of hand-written sources, keyed by
    ``validate|<dir>``."""
    dirs = sorted(
        d for d in corpus.rglob("*")
        if d.is_dir() and not {"_generated", "traces"} & set(d.relative_to(corpus).parts)
    )
    return {f"validate|{_relative(corpus, d)}": _hash_run(corpus, ["validate", str(d)])
            for d in dirs}


def cli_outputs(corpus: Path) -> dict[str, str]:
    hashes = validate_outputs(corpus)
    built, out_dirs = build_outputs(corpus)
    hashes.update(built)
    hashes.update(check_outputs(corpus, out_dirs))
    hashes.update(fsm_outputs(corpus, out_dirs))
    hashes.update(metrics_outputs(corpus))
    return hashes


def _assert_slice(hashes: dict[str, str], command: str, count: int) -> None:
    """The runs of ``command`` in ``hashes`` are ``count`` and match the manifest's."""
    def of_command(manifest: dict[str, str]) -> dict[str, str]:
        return {key: value for key, value in manifest.items() if key.split("|", 1)[0] == command}

    actual = of_command(hashes)
    expected = of_command(json.loads(GOLDEN.read_text(encoding="utf-8")))
    assert len(actual) == count
    assert sorted(actual) == sorted(expected)
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed, f"{len(changed)} {command} output(s) changed, first: {changed[:3]}"


def test_check_outputs_match_the_manifest(corpus_copy):
    built, out_dirs = build_outputs(corpus_copy)
    _assert_slice(built, "build", 14)
    _assert_slice(check_outputs(corpus_copy, out_dirs), "check", 308)


def test_fsm_metrics_and_validate_outputs_match_the_manifest(corpus_copy):
    _assert_slice(validate_outputs(corpus_copy), "validate", 28)
    _, out_dirs = build_outputs(corpus_copy)
    fsm = fsm_outputs(corpus_copy, out_dirs)
    _assert_slice(fsm, "fsm", 81)
    _assert_slice(fsm, "fsm --dot", 81)
    _assert_slice(metrics_outputs(corpus_copy), "metrics --json", 1)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "corpus"
        shutil.copytree(CORPUS, copy)
        manifest = cli_outputs(copy)
    GOLDEN.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} hashes to {GOLDEN}", file=sys.stderr)
