"""Run ``cryslkit.cli.main`` with spans recorded around cryslkit's public functions.

Usage: python3 cli_launcher.py SPANS_JSON -- ARG...

The traced cold-cli round starts this in place of ``python -m cryslkit``.
``SPANS_JSON`` receives the spans and counters; stdout, stderr and the exit
code are the command's own.
"""

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    import cryslkit.cli

    tracer = spans.Tracer()
    with spans.traced(tracer):
        code = cryslkit.cli.main(argv)
    sys.stdout.flush()
    Path(out).write_text(json.dumps({"spans": tracer.spans, "counters": tracer.counters}),
                         encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
