"""Seeded input generators for the benchmark (standard library only).

Two writers, both pure functions of their arguments:

* ``interleaved_trace`` turns the bundled jca-android traces into one long
  trace made of whole replicas. Each replica gets fresh object, return and
  ``ref`` ids; a seeded scheduler interleaves a window of live replicas, which
  keeps every replica's (and so every object's) own event order, and ``seq``
  is renumbered to increase strictly. A trace is only ever cut between
  replicas, so its findings are a whole multiple of one replica's.
* ``order_rule_text`` and ``order_trace`` write the order-wide rules, whose
  ORDER ``(e | f)*, e`` followed by k times ``(e | f)`` has a DFA of
  2^(k+1) + 1 states, and short traces of accepted, incomplete and broken
  objects over them.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

JCA_TRACE_DIR = Path("traces") / "jca-android"
_MARK = "\x00"
_MARK_JSON = json.dumps(_MARK)[1:-1]


def replica_template(corpus: Path) -> list[dict]:
    """One replica: every jca-android trace record, files in name order.

    Records keep their field order but lose ``seq``; the writer renumbers.
    """
    records = []
    for path in sorted((corpus / JCA_TRACE_DIR).glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                record = json.loads(line)
                del record["seq"]
                records.append(record)
    return records


def _fresh_ids(record: dict, suffix: str) -> dict:
    out = dict(record)
    out["object_id"] = record["object_id"] + suffix
    if record.get("return_id") is not None:
        out["return_id"] = record["return_id"] + suffix
    if "args" in record:
        out["args"] = [
            {"ref": arg["ref"] + suffix} if isinstance(arg, dict) else arg
            for arg in record["args"]
        ]
    return out


def interleaved_trace(
    template: list[dict], replicas: int, window: int, seed: int
) -> list[str]:
    """JSONL lines of ``replicas`` whole replicas, ``window`` of them live at once.

    At each step the scheduler picks one live replica at random and emits its
    next record; a finished replica is replaced by the next unstarted one.
    """
    rng = random.Random(seed)
    # Each record is serialised once with a marker where the replica suffix
    # goes; a line is then the pieces joined around the suffix, byte for byte
    # what json.dumps gives for the renamed record.
    head = len('{"seq": 0')
    pieces = [
        json.dumps({"seq": 0, **_fresh_ids(record, _MARK)})[head:].split(_MARK_JSON)
        for record in template
    ]
    lines: list[str] = []
    live: list[list] = []  # [replica index, next record position]
    started = 0
    seq = 0
    while live or started < replicas:
        while len(live) < window and started < replicas:
            live.append([started, 0])
            started += 1
        slot = rng.randrange(len(live))
        replica, pos = live[slot]
        seq += 1
        lines.append('{"seq": ' + str(seq) + f".r{replica}".join(pieces[pos]))
        if pos + 1 == len(template):
            live[slot] = live[-1]
            live.pop()
        else:
            live[slot][1] = pos + 1
    return lines


def order_class(k: int) -> str:
    return f"org.example.Wide{k}"


def order_rule_text(k: int) -> str:
    """A valid concrete rule whose ORDER is ``(e | f)*, e`` then k x ``(e | f)``.

    ``g`` is declared but absent from ORDER, so calling it breaks the order
    through the automaton rather than through event matching.
    """
    order = ", ".join(["(e | f)*", "e"] + ["(e | f)"] * k)
    return (
        f"SPEC {order_class(k)}\n"
        "OBJECTS\n"
        "    int n;\n"
        "EVENTS\n"
        "    e : push(n);\n"
        "    f : skip();\n"
        "    g : reset();\n"
        "ORDER\n"
        f"    {order}\n"
    )


_ARITY = {"e": 1, "f": 0, "g": 0}
_METHOD = {"e": "push", "f": "skip", "g": "reset"}


def _word(rng: random.Random, k: int, kind: str) -> list[str]:
    length = rng.randint(k + 1, k + 8)
    word = [rng.choice("ef") for _ in range(length)]
    if kind == "accepted":
        word[-(k + 1)] = "e"
    elif kind == "incomplete":
        if rng.random() < 0.5:
            word = word[: rng.randint(1, k)]
        else:
            word[-(k + 1)] = "f"
    else:  # broken: a viable prefix, the undeclared-in-ORDER call, a tail
        cut = rng.randint(0, length)
        word = word[:cut] + ["g"] + word[cut : cut + rng.randint(0, 3)]
    return word


def order_trace(
    k: int, objects: int, seed: int
) -> tuple[list[str], dict[str, list[tuple[int, str]]]]:
    """JSONL lines for ``objects`` objects of the rule of width ``k``.

    Returns the lines and, per object id, its ``(seq, label)`` word, from which
    the benchmark derives each object's expected verdict.
    """
    rng = random.Random(seed * 1_000 + k)
    kinds = ("accepted", "incomplete", "broken")
    pending = {
        f"w{k}o{i}": _word(rng, k, kinds[i % 3]) for i in range(objects)
    }
    cursor = {oid: 0 for oid in pending}
    live = [oid for oid, word in pending.items() if word]
    words: dict[str, list[tuple[int, str]]] = {oid: [] for oid in pending}
    lines: list[str] = []
    seq = 0
    while live:
        slot = rng.randrange(len(live))
        oid = live[slot]
        label = pending[oid][cursor[oid]]
        cursor[oid] += 1
        if cursor[oid] == len(pending[oid]):
            live[slot] = live[-1]
            live.pop()
        seq += 1
        args = [rng.randint(0, 9)] if _ARITY[label] else []
        lines.append(json.dumps({
            "seq": seq, "object_id": oid, "class_name": order_class(k),
            "method_name": _METHOD[label], "args": args,
        }))
        words[oid].append((seq, label))
    return lines, words
