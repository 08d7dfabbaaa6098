from __future__ import annotations

import gc
import shutil
from pathlib import Path

import pytest

from cryslkit.diagnostics import Loc, Record
from cryslkit.model import BuildConfig, CrySLSpec, RefinementSpec
from cryslkit.parsing import (
    ParseError,
    SourceFile,
    parse_abstract,
    parse_config,
    parse_crysl,
    parse_refinement,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

MESSAGEDIGEST_RULE = """\
SPEC java.security.MessageDigest
OBJECTS
    java.lang.String algorithm;
    java.lang.String digestAlg;
    byte[] data;
    byte[] out;
EVENTS
    g1 : getInstance(algorithm);
    g2 : getInstance(digestAlg, _);

    Gets := g1 | g2;

    u1 : update(_);
    d1 : out = digest();
ORDER
    Gets, u1+, d1
CONSTRAINTS
    algorithm in {"SHA-256", "SHA-384", "SHA-512", "BLAKE2B-512"};
ENSURES
    digested[out];
"""

SHA256_DIGEST_RULE = """\
SPEC SHA256Digest
OBJECTS
    byte input;
    byte[] out;
    int outOff;
EVENTS
    c : SHA256Digest();
    u : update(input);
    f : doFinal(out, outOff);
ORDER
    c, u+, f
ENSURES
    digested[out];
"""

ABSTRACT_MESSAGEDIGEST = """\
SPEC java.security.MessageDigest
OBJECTS
    java.lang.String algorithm;
    java.lang.String digestAlg;
    byte[] data;
    byte[] out;
EVENTS
    g1 : getInstance(algorithm);
    g2 : getInstance(digestAlg, _);
    Gets := g1 | g2;
    u1 : update(_);
    d1 : out = digest();
ORDER
    Gets, u1+, d1
CONSTRAINTS
    algorithm in $AlgSet;
ENSURES
    digested[out];
"""

ABSTRACT_FACTORY = """\
ABSTRACT SPEC AbstractFactory<T>
OBJECTS
    com.google.crypto.tink.KeysetHandle ksh;
    <T> primitive;
EVENTS
    gp : primitive = getPrimitive(ksh);
ORDER
    gp
REQUIRES
    generatedKeySet[ksh];
ENSURES
    setPrimitive[primitive];
"""

PROVIDER_REFINEMENTS = """\
SPEC MessageDigest REFINES java.security.MessageDigest {
    define AlgSet = {"Blake2s", "Blake2b", "GOST-3411", "SHA-256", "SHA-384",
                     "SHA-512", "Whirlpool"};
}
SPEC KeyGenerator REFINES javax.crypto.KeyGenerator {
    define AlgSet = {"AES", "BLOWFISH", "HmacSHA256", "HmacSHA384", "HmacSHA512",
                     "RIJNDAEL", "Serpent"};
    add constraint alg in {"AES"} => keySize in {128, 192, 256};
}
"""

DIGEST_FAMILY_REFINEMENTS = """\
SPEC SHA256 REFINES
     Digest<org.bouncycastle.crypto.digests.SHA256Digest>;
SPEC SHA384 REFINES
     Digest<org.bouncycastle.crypto.digests.SHA384Digest>;
SPEC SHA512 REFINES
     Digest<org.bouncycastle.crypto.digests.SHA512Digest>;
SPEC SHA512t REFINES
     Digest<org.bouncycastle.crypto.digests.SHA512tDigest>;
"""


def cyclic_garbage(action) -> list:
    """What ``action()`` leaves for the cyclic garbage collector: the objects
    that ``gc.DEBUG_SAVEALL`` keeps from a collection run right after it.
    Empty when reference counting freed everything the call dropped."""
    gc.collect()
    flags, saved = gc.get_debug(), len(gc.garbage)
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        action()
        gc.collect()
        return gc.garbage[saved:]
    finally:
        gc.set_debug(flags)
        del gc.garbage[saved:]


def wide_rule_text(k: int) -> str:
    """A rule whose ORDER ``(e | f)*, e, (e | f)^k`` has 2^(k+1) + 1 DFA states."""
    order = ", ".join(["(e | f)*", "e"] + ["(e | f)"] * k)
    return (
        f"SPEC org.example.Wide{k}\n"
        "OBJECTS\n"
        "    int n;\n"
        "EVENTS\n"
        "    e : push(n);\n"
        "    f : skip();\n"
        "ORDER\n"
        f"    {order}\n"
    )


# The records that named their file in a ``source_path`` field, before each
# location named it; ``dump`` writes that field back, just before ``loc``.
_HAD_SOURCE_PATH = (CrySLSpec, RefinementSpec, BuildConfig)


def dump(value, path: str) -> str:
    """A value parsed from the file at ``path`` on one line, with every field,
    locations and paths included, and set members in sorted order.

    The shape is the one from before a location named its file, so
    ``tests/golden/parse_manifest.json`` keeps its hashes: after checking that
    every location is in ``path``, a location is written as its line and
    column, and a rule, refinement or configuration gets its
    ``source_path=path`` field back."""
    if isinstance(value, Loc):
        assert value.path == path, (value.path, path)
        return f"Loc(line={value.line!r}, col={value.col!r})"
    if isinstance(value, Record):
        fields = [f"{name}={dump(getattr(value, name), path)}" for name in value._fields]
        if isinstance(value, _HAD_SOURCE_PATH):
            fields.insert(value._fields.index("loc"), f"source_path={path!r}")
        return f"{type(value).__name__}({', '.join(fields)})"
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(dump(item, path) for item in value) + "]"
    if isinstance(value, frozenset):
        return "{" + ", ".join(sorted(dump(item, path) for item in value)) + "}"
    return repr(value)


SOURCE_PARSERS = {"crysl": parse_crysl, "abstract": parse_abstract,
                  "refinement": parse_refinement, "config": parse_config}


def parse_outcome(parsers: dict, language: str, text: str, path: str) -> str:
    """What ``parsers[language]`` makes of ``text``: the dump of its result,
    or the path, location and message of its ``ParseError``."""
    try:
        return dump(parsers[language](SourceFile.for_text(text, language, path)), path)
    except ParseError as exc:
        diag = exc.diagnostic
        return f"ParseError {diag.path}:{diag.line}:{diag.column}: {diag.message!r}"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return REPO_ROOT / "corpus"


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return REPO_ROOT / "tests" / "golden"


@pytest.fixture()
def corpus_copy(tmp_path, corpus_dir) -> Path:
    """A scratch copy of the corpus, for commands that write output trees."""
    target = tmp_path / "corpus"
    shutil.copytree(corpus_dir, target)
    return target
