"""What the four parsers make of the corpus and of seeded mutants of it.

Every hand-written corpus source (``.crysl``, ``.mcsl``, ``.ref``, ``.conf``)
is parsed as it is and as a fixed set of mutants: truncations, deleted
stretches, grammar tokens spliced in at token boundaries, duplicated stretches
and CRLF copies. Each outcome is dumped with every location (the whole AST, or
the ``ParseError``'s location and message), and
``tests/golden/parse_manifest.json`` keeps one SHA-256 per source and
mutation kind. The mutants come from a generator seeded by the source's path,
so they are the same on every run and Python version.

The manifest changes only with an intended change to what a parser accepts
or reports. Regenerate it with::

    PYTHONPATH=src python tests/test_parse_manifest.py
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from pathlib import Path

from cryslkit.parsing import LANGUAGE_BY_EXTENSION

from conftest import REPO_ROOT, SOURCE_PARSERS, parse_outcome

GOLDEN = REPO_ROOT / "tests" / "golden" / "parse_manifest.json"
CORPUS = REPO_ROOT / "corpus"

# Spliced into sources: every keyword, every punctuation character and the
# character pairs ':=', '=>' and '[]', literals, comments, line ends, and text
# that only a '.conf' path or a lenient reading would take.
SPLICES = [
    "SPEC", "ABSTRACT", "OBJECTS", "EVENTS", "ORDER", "CONSTRAINTS", "REQUIRES", "ENSURES",
    "REFINES", "in", "define", "add", "remove", "replace", "event", "constraint", "ensures",
    "requires", "order", "to", "config", "src", "out", "load", "spec", "refinement", "_", "x",
    "(", ")", "{", "}", "<", ">", "[", "]", "[]", "[ ]", ",", ";", ":", ":=", ": =", "=", "=>",
    "= >", "|", "?", "*", "+", "$", ".", "/", "../", "a//b", "\\",
    '"', '"s"', '"a b"', '"a\\"', "0", "42", "٣", "é", "\f",
    "//", "// c\n", "\n", "\r\n", "\r", " ", "\t",
]


def corpus_sources() -> list[Path]:
    return sorted(
        path for path in CORPUS.rglob("*")
        if path.suffix in LANGUAGE_BY_EXTENSION and "_generated" not in path.parts
    )


def mutants(text: str, seed: str) -> dict[str, list[str]]:
    """The texts parsed for one source, by mutation kind."""
    rng = random.Random(seed)
    size = len(text)
    bounds = [0] + [m.end() for m in re.finditer(r"\w+|\S", text)]

    def stretch() -> tuple[int, int]:
        start = rng.randrange(size + 1)
        return start, min(size, start + rng.randrange(1, 24))

    def splice() -> str:
        start = rng.choice(bounds)
        end = rng.choice([b for b in bounds if start <= b <= start + 12])
        tokens = [rng.choice(SPLICES) for _ in range(rng.randrange(1, 4))]
        return text[:start] + rng.choice(["", " "]).join(tokens) + text[end:]

    deletions = [text[:a] + text[b:] for a, b in (stretch() for _ in range(8))]
    return {
        "source": [text],
        "truncate": [text[:rng.randrange(size + 1)] for _ in range(8)],
        "delete": deletions,
        "splice": [splice() for _ in range(16)],
        "duplicate": [text[:b] + text[a:] for a, b in (stretch() for _ in range(6))],
        "crlf": [t.replace("\n", "\r\n") for t in [text, *deletions]],
    }


def parse_manifest() -> dict[str, str]:
    hashes = {}
    for path in corpus_sources():
        name = path.relative_to(CORPUS).as_posix()
        language = LANGUAGE_BY_EXTENSION[path.suffix]
        text = path.read_text(encoding="utf-8")
        for kind, texts in mutants(text, name).items():
            outcomes = "\n".join(parse_outcome(SOURCE_PARSERS, language, t, name) for t in texts)
            hashes[f"{name}|{kind}"] = hashlib.sha256(
                outcomes.encode("utf-8", "surrogatepass")).hexdigest()
    return hashes


def test_every_corpus_source_and_mutant_parses_as_the_manifest_records():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = parse_manifest()
    assert len(corpus_sources()) == 67
    assert sorted(actual) == sorted(expected)
    changed = sorted(key for key in expected if actual[key] != expected[key])
    assert not changed, f"{len(changed)} parse outcome set(s) changed, first: {changed[:3]}"


if __name__ == "__main__":
    manifest = parse_manifest()
    GOLDEN.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(manifest)} hashes to {GOLDEN}", file=sys.stderr)
