"""Write manifest.json: the SHA-256 of every file each bundled configuration emits.

Usage: PYTHONPATH=src python3 perfbench/record_manifest.py

Run it from the root of a checkout whose build output is known to be right;
the family-build workload then compares every build against it.
"""

import json
import sys
import tempfile
from pathlib import Path

from workloads import MANIFEST, build_config, copy_corpus, sha256


def main() -> int:
    manifest = {}
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as work:
        corpus = copy_corpus(Path("corpus"), Path(work) / "corpus")
        for conf in sorted(corpus.rglob("*.conf")):
            result, written = build_config(conf)
            if any(d.severity.name == "ERROR" for d in result.diagnostics):
                print(f"{conf}: build failed", file=sys.stderr)
                return 1
            manifest[conf.relative_to(corpus).as_posix()] = {
                path.name: sha256(path.read_bytes()) for path in sorted(written)
            }
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{MANIFEST}: {sum(map(len, manifest.values()))} files of {len(manifest)} configs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
