"""Byte-identity guard for the session parser: a seeded list of edited
session texts must parse to the same printed sessions, or fail with the
same error type, message, line and column, as recorded in
``tests/golden/parse-outcomes-2000.sha256``; a text that fails must
fail with a ``SessionError``.

The texts are the bundled sessions and 57 corpus sessions, each with one
to three random insertions, replacements or deletions; half of the edits
land on a digit, and the edit characters include every grammar symbol,
line breaks and characters outside the grammar.  The digest was written
before the token layer became plain strings, so any change to it is a
change of behaviour and must be stated.  Run as a script, the module
prints every outcome, one JSON line each, for a diff of two checkouts.
"""

import hashlib
from importlib import resources
from random import Random

from horders.errors import SessionError
from horders.session import parse_session, print_session

from test_golden import CORPUS_OPS, CORPUS_SEED, GOLDEN, SESSIONS, load_workloads

TEXTS = 2000
EDIT_CHARS = list("()[]=,;:^*/+-#_ \t\r\n0123456789taqz") + [
    "²", "٣", "１", "é", "Δ", " ", "\f", "\x85", "\x0b", "mod", "sqrt(", "qi", "1/0"]


def base_texts(monkeypatch) -> list[str]:
    workloads = load_workloads(monkeypatch)
    texts = [resources.files("horders.sessions").joinpath(name).read_text(encoding="utf-8")
             for name in SESSIONS]
    schedule = workloads.CORPUS_SCHEDULE
    texts += [workloads.corpus.make_session(CORPUS_SEED, i, schedule[i % len(schedule)]).text
              for i in range(CORPUS_OPS)]
    return texts


def edited(rng: Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.5:
            digits = [k for k, c in enumerate(text) if c.isdigit()]
            i = rng.choice(digits) if digits else 0
        else:
            i = rng.randint(0, len(text))
        op = rng.choice(("insert", "replace", "delete"))
        if op == "insert":
            text = text[:i] + rng.choice(EDIT_CHARS) + text[i:]
        elif op == "replace":
            text = text[:i] + rng.choice(EDIT_CHARS) + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def outcome(text: str) -> str:
    # every failure must be a positioned SessionError: any other exception
    # escapes and fails the test instead of being hashed into the digest
    try:
        session = parse_session(text)
    except SessionError as exc:
        return repr((type(exc).__name__, str(exc), getattr(exc, "line", None),
                     getattr(exc, "col", None)))
    return print_session(session)


def edited_outcomes(monkeypatch) -> list[tuple[str, str]]:
    """Each of the TEXTS edited texts with its outcome, in order."""
    texts = base_texts(monkeypatch)
    rng = Random("parse-outcomes")
    return [(text, outcome(text)) for text in
            (edited(rng, texts[i % len(texts)]) for i in range(TEXTS))]


def test_edited_sessions_parse_as_recorded(monkeypatch):
    digest = hashlib.sha256()
    for _, out in edited_outcomes(monkeypatch):
        digest.update(out.encode())
        digest.update(b"\0")
    want = (GOLDEN / f"parse-outcomes-{TEXTS}.sha256").read_text().strip()
    assert digest.hexdigest() == want


if __name__ == "__main__":
    # One JSON line per edited text, {"index", "text", "outcome"}, so that
    # the outcomes of two checkouts can be diffed line by line:
    #   PYTHONPATH=src python3 tests/test_parse_outcomes.py > outcomes.jsonl
    import json

    import pytest

    with pytest.MonkeyPatch.context() as mp:
        for index, (text, out) in enumerate(edited_outcomes(mp)):
            print(json.dumps({"index": index, "text": text, "outcome": out}))
