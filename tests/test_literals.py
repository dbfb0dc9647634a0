"""Session literals: the monomial evaluator against the jet-per-atom reference."""

from random import Random

import pytest

from horders import session as session_module
from horders.errors import HordersError, IndeterminateValuation, NotInvertible, SessionTypeError
from horders.scalars import BASE, QUATERNION, quadratic
from horders.session import _Cursor, _parse_expr, parse_session, print_session

from helpers import ref_parse_expr
from test_parse_outcomes import base_texts

ETALE = QUATERNION.extended(-1)
KINDS = {
    "base": (BASE, ()),
    "quadratic(-3)": (quadratic(-3), ("sqrt(-3)",)),
    "quaternion": (QUATERNION, ("qi", "qj", "qk")),
    "quaternion+sqrt(-1)": (ETALE, ("qi", "qj", "qk", "sqrt(-1)")),
}
NUMBERS = ("0", "1", "2", "3", "1/2", "3/6", "5/3", "t", "t")

# Each text is compared in every kind whose atoms it uses.
CASES = [
    "1 - 2*t + 3/6*t^2 - 1/2*t^2",
    "-t^-2 - -3*t",
    "0*(1+t)^-1",
    "(1+t)^-1 - (1+t)^-1",
    "(1+t)^-1*(1+t)",
    "((1 - t)*(2 + t^2))^-2 mod t^5",
    "(t mod t^3)*0",
    "2*(t - t mod t^4)",
    "(1 + t mod t^2)^0",
    "0^0",
    "(2*t)^-3 + 5/3",
    "1/0",
    "0^-1",
    "(t-t)^-1",
    "(t mod t^1)^-1",
    "1 + t mod t^-1",
    "t^2^3",
    "1 +",
    "qi*qj - qj*qi",
    "(qi + qj*t)*(qk - qi*t)",
    "(1 + qi*t)^-1*qj",
    "sqrt(-3)*(1 + sqrt(-3))^2",
    "(1 + qi*sqrt(-1))^-1",
    "qi*sqrt(-1)*(1 - qi*sqrt(-1))*qj",
]


def evaluate(parse, text: str, kind):
    """The jet that ``parse`` reads from ``text``, or its error as
    (type, message); a failed inversion reads as the typed session error."""
    cur = _Cursor(text, 1)
    try:
        value = parse(cur, kind)
        cur.done()
        return value
    except (IndeterminateValuation, NotInvertible):
        return SessionTypeError, "no inverse"
    except HordersError as exc:
        if isinstance(exc, SessionTypeError) and "no inverse" in str(exc):
            return SessionTypeError, "no inverse"
        return type(exc), str(exc)


def random_expr(rng: Random, atoms: tuple, depth: int = 0) -> str:
    text = ("-" if rng.random() < 0.2 else "") + random_term(rng, atoms, depth)
    for _ in range(rng.randint(0, 3)):
        text += rng.choice((" + ", " - ")) + random_term(rng, atoms, depth)
    return text


def random_term(rng: Random, atoms: tuple, depth: int) -> str:
    factors = []
    for _ in range(rng.randint(1, 3)):
        if depth < 2 and rng.random() < 0.2:
            factor = f"({random_expr(rng, atoms, depth + 1)})"
        else:
            factor = rng.choice(atoms)
        if rng.random() < 0.25:
            factor += f"^{rng.randint(-2, 3)}"
        factors.append(("-" if rng.random() < 0.1 else "") + factor)
    return "*".join(factors)


def usable(text: str, units: tuple) -> bool:
    words = ("qi", "qj", "qk", "sqrt(-1)", "sqrt(-3)")
    return all(w in units for w in words if w in text)


@pytest.mark.parametrize("name", KINDS)
def test_fixed_cases_match_the_reference(name):
    kind, units = KINDS[name]
    for text in CASES:
        if usable(text, units):
            assert evaluate(_parse_expr, text, kind) == evaluate(ref_parse_expr, text, kind), text


@pytest.mark.parametrize("name", KINDS)
def test_random_expressions_match_the_reference(name):
    kind, units = KINDS[name]
    rng = Random(f"literals-{name}")
    for _ in range(150):
        text = random_expr(rng, NUMBERS + units)
        assert evaluate(_parse_expr, text, kind) == evaluate(ref_parse_expr, text, kind), text


def test_sessions_parse_as_with_the_reference(monkeypatch):
    texts = base_texts(monkeypatch)
    new = [parse_session(text) for text in texts]
    monkeypatch.setattr(session_module, "_parse_expr", ref_parse_expr)
    for text, got in zip(texts, new):
        want = parse_session(text)
        assert got == want and print_session(got) == print_session(want)


def session_with(entry: str, kind_word: str = "base", conj: str = "none") -> str:
    return (f"division D = {kind_word} s=1 t=1\norder A = block(D; 1)\n"
            f"involution s on A : gauge diag({entry}) eps +1 conj {conj}\n")


@pytest.mark.parametrize("entry", ["0^-1", "(t-t)^-1", "2*(0*t)^-3"])
def test_power_of_a_zero_is_a_type_error_at_the_caret(entry):
    text = session_with(entry)
    with pytest.raises(SessionTypeError) as err:
        parse_session(text)
    line = text.splitlines()[2]
    assert (err.value.line, err.value.col) == (3, line.rindex("^") + 1)
    assert "no inverse" in str(err.value)


def test_power_of_a_zero_names_the_zero_scalar():
    with pytest.raises(SessionTypeError) as err:
        parse_session(session_with("0^-1"))
    assert (err.value.line, err.value.col) == (3, 33)
    assert str(err.value) == "line 3, col 33: power -1 of a value with no inverse: zero scalar"


def test_power_of_a_zero_divisor_is_a_type_error_at_the_caret():
    witness = "witness w : from s to s mode etale(-1) u diag((1 + qi*sqrt(-1))^-1) alpha 1"
    text = session_with("1", "quaternion", "quaternion") + witness + "\n"
    with pytest.raises(SessionTypeError) as err:
        parse_session(text)
    assert (err.value.line, err.value.col) == (4, witness.index("^") + 1)
