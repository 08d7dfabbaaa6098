from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from cryslkit.diagnostics import Record
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


def dump(value) -> str:
    """A value on one line with every field, locations and paths included;
    set members in sorted order."""
    if isinstance(value, Record):
        fields = ", ".join(f"{name}={dump(getattr(value, name))}" for name in value._fields)
        return f"{type(value).__name__}({fields})"
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(map(dump, value)) + "]"
    if isinstance(value, frozenset):
        return "{" + ", ".join(sorted(map(dump, value))) + "}"
    return repr(value)


SOURCE_PARSERS = {"crysl": parse_crysl, "abstract": parse_abstract,
                  "refinement": parse_refinement, "config": parse_config}


def parse_outcome(parsers: dict, language: str, text: str, path: str) -> str:
    """What ``parsers[language]`` makes of ``text``: the dump of its result,
    or the path, location and message of its ``ParseError``."""
    try:
        return dump(parsers[language](SourceFile.for_text(text, language, path)))
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
