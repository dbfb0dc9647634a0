"""Regression guards: random session text and random argv make the CLI exit
with one of its documented codes and never with a traceback, and every
session that parses prints back to itself."""

import contextlib
import io
from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from horders.cli import main
from horders.errors import SessionError
from horders.session import parse_session, print_session

SESSIONS = ("main-counterexample.ho", "semisimple-basechange.ho")
BUNDLED = [resources.files("horders.sessions").joinpath(name).read_text(encoding="utf-8")
           for name in SESSIONS]

WORDS = ("division order involution witness check block product base quaternion "
         "quadratic s t on gauge diag mat dsum eps conj none from to mode F etale u "
         "alpha mod expect error sqrt qi qj qk wellformed iso inv aniso distinguish verify "
         "transport sh_verify descend_sig D A B s1 s2 w true false").split()
SYMBOLS = list("()[]=,;:^*/+-#")
# non-ASCII digits (some that int() rejects) and letters, a no-break space
ODD = ["²", "³", "①", "٣", "１", "é", "Δ", "ß", "\u00a0", "\t"]

GUARD = settings(max_examples=100, deadline=None, derandomize=True)


def _token_soup():
    token = st.one_of(st.sampled_from(WORDS + SYMBOLS + ODD),
                      st.integers(0, 40).map(str), st.characters())
    line = st.lists(token, max_size=14).map(" ".join)
    return st.lists(line, max_size=6).map("\n".join)


@st.composite
def _edited_bundled(draw):
    text = draw(st.sampled_from(BUNDLED))
    for _ in range(draw(st.integers(1, 3))):
        # half of the edits land on a digit, where the parser reads numbers
        digits = [k for k, c in enumerate(text) if c.isdigit()]
        i = draw(st.sampled_from(digits) | st.integers(0, len(text)))
        ch = draw(st.sampled_from(ODD) | st.sampled_from(SYMBOLS) | st.characters())
        op = draw(st.sampled_from(("insert", "replace", "delete")))
        if op == "insert":
            text = text[:i] + ch + text[i:]
        elif op == "replace":
            text = text[:i] + ch + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
    return text


SESSION_TEXT = _token_soup() | _edited_bundled()
PREAMBLE = "division D = base s=1 t=1\norder A = block(D; 1)\n"
SUPERSCRIPT_SIZE = PREAMBLE + "order B = block(D; 2\u00b2)\n"
SUPERSCRIPT_ENTRY = PREAMBLE + "involution s on A : gauge diag(1, \u00b2) eps +1 conj none\n"
# the inverse is known mod t^16 and prints with a trailing `mod t^16`
TRUNCATED_ENTRY = PREAMBLE + "involution s on A : gauge diag((1+t)^-1) eps +1 conj none\n"


def _run_cli(argv) -> tuple[int, str]:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors, --help, --version
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in zip(SESSIONS, BUNDLED):
        (path / name).write_text(text, encoding="utf-8")
    return path


@GUARD
@given(text=SESSION_TEXT)
@example(text=SUPERSCRIPT_SIZE)
@example(text=SUPERSCRIPT_ENTRY)
def test_random_session_text_exits_with_a_documented_code(workdir, text):
    path = workdir / "random.ho"
    path.write_text(text, encoding="utf-8")
    code, err = _run_cli(["check", str(path), "--json"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@GUARD
@given(text=SESSION_TEXT)
@example(text=SUPERSCRIPT_SIZE)
@example(text=SUPERSCRIPT_ENTRY)
@example(text=TRUNCATED_ENTRY)
def test_every_parsed_session_prints_back_to_itself(text):
    try:
        session = parse_session(text)
    except SessionError:
        return
    printed = print_session(session)
    assert parse_session(printed) == session
    assert print_session(parse_session(printed)) == printed


ARGV_TOKENS = (
    "check replay inv iso sh sh-verify resinv aniso distinguish verify "
    "--json --precision --scenario --sig --sig2 --division --division2 --s --t --session "
    "--order --inv --block --witness --transport --help --version "
    "main-orthogonal main-unitary semisimple-sh sh-permutation nowhere "
    "4,2 2,2,1 3,3 1 s1 s2 wF wE A B1 x -1 0"
).split()


@GUARD
@given(argv=st.lists(st.one_of(st.sampled_from(ARGV_TOKENS + list(SESSIONS) + ODD),
                               st.integers(-2, 6).map(str), st.text(max_size=6)),
                     max_size=8))
def test_random_argv_exits_with_a_documented_code(workdir, argv):
    argv = [str(workdir / a) if a in SESSIONS else a for a in argv]
    code, err = _run_cli(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
