"""Byte contract of ``cryslkit check``.

Every output directory of the 14 bundled configurations is checked against
every bundled trace in both report formats (308 runs). Each run's exit code,
stdout and stderr, with the corpus path made relative, is hashed and compared
with ``tests/golden/check_outputs.json``.

The manifest records what the command printed when it was generated; it
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

GOLDEN = Path(__file__).resolve().parent / "golden" / "check_outputs.json"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_outputs(corpus: Path) -> dict[str, str]:
    """Build every configuration under ``corpus`` in place, then hash each
    ``check`` run, keyed by ``<rules dir>|<trace>|<format>``."""
    for generated in sorted(corpus.rglob("_generated")):
        shutil.rmtree(generated)  # only what this build emits is checked
    prefix = f"{corpus}/"
    out_dirs = []
    for conf in sorted(corpus.rglob("*.conf")):
        code, out, err = _run(["build", str(conf), "--json"])
        assert code == 0, err
        out_dirs.append(json.loads(out)["out"])
    traces = sorted(str(p) for p in (corpus / "traces").rglob("*.jsonl"))
    hashes = {}
    for rules in out_dirs:
        for trace in traces:
            for fmt in ("json", "table"):
                code, out, err = _run(
                    ["check", "--rules", rules, "--trace", trace, "--format", fmt]
                )
                record = json.dumps([code, out.replace(prefix, ""), err.replace(prefix, "")])
                key = "|".join((rules.replace(prefix, ""), trace.replace(prefix, ""), fmt))
                hashes[key] = hashlib.sha256(record.encode("utf-8", "surrogatepass")).hexdigest()
    return hashes


def test_check_outputs_match_the_manifest(corpus_copy):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = check_outputs(corpus_copy)
    assert len(actual) == 308
    assert sorted(actual) == sorted(expected)
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed, f"{len(changed)} check output(s) changed, first: {changed[:3]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "corpus"
        shutil.copytree(CORPUS, copy)
        manifest = check_outputs(copy)
    GOLDEN.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} hashes to {GOLDEN}", file=sys.stderr)
