"""Session literals: the reader on integer rows against the jet-per-atom reference."""

import time
from collections import Counter
from random import Random

import pytest

from horders import session as session_module
from horders.errors import HordersError, SessionSyntaxError, SessionTypeError
from horders.scalars import BASE, QUATERNION, LaurentJet, _times, quadratic
from horders.session import _Cursor, _parse_expr, parse_session, print_session

from helpers import ref_parse_expr, ref_times
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
    """The jet that ``parse`` reads from ``text``, or its error as (type,
    message).  A failed inversion reads as "no inverse" with its column:
    the reference builds every atom as a jet, so it says "cannot invert
    zero" where the reader names the zero scalar of a monomial."""
    cur = _Cursor(text, 1)
    try:
        value = parse(cur, kind)
        cur.done()
        return value
    except HordersError as exc:
        if isinstance(exc, SessionTypeError) and "no inverse" in str(exc):
            return SessionTypeError, "no inverse", exc.col
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


# Atoms the reader reads in place, and factors it reads as values.
INLINE = ("0", "1", "2", "7", "1/2", "3/6", "5/3", "4/2", "t", "t", "t^0", "t^2", "t^+1",
          "t^-1", "t^-3")
NOT_FLAT = ("1/0", "t^", "qi", "sqrt(-5)", "2^3", "qi^-1", "2/3^2", "sqrt(-1)^2",
               "(1 - t)", "(t - t)^-1", "- -t", "0^-1")

INLINE_CASES = [
    "qi*qj", "qj*qi", "qi*sqrt(-1)*t^2", "sqrt(-1)*qk", "qk*sqrt(-1)*qk*sqrt(-1)",
    "sqrt(-3)*sqrt(-3)", "sqrt(-3)*t*sqrt(-3)",
    "t^0", "3*t^0 - 1", "t^-2", "2*t^-1 + t^-1*3", "t^+2*t^-2",
    "t^2*qi - t^2*qi", "1/2*t - 3/6*t", "1/6*t + 1/3*t", "1/6 + 1/3 - 1/2", "5/3*qj + 1/3*qj",
    "-t", "-2*-t", "- -t", "--t*2", "1 - -t", "1 - - -t", "-t^2 - -t^2",
    "1/0", "t^", "t^-", "t^x", "qi", "sqrt(-5)", "sqrt(-3", "sqrt(+3)", "2^3", "qi^-1",
    "2*qi^2", "sqrt(-1)^-1", "2/3^2", "1/", "1/x", "1 +", "-", "t^2^3", "0^-1",
    "2*(0*t)^-1", "(t - t)^-1", "(0)^-1", "1 + (0)^-1", "qi*(1 + t)*qj", "(1 + t)*qi*t",
]


def random_inline_expr(rng: Random, atoms: tuple) -> str:
    """A sum of products of ``atoms`` (now and then a factor that is not a
    flat atom), sometimes followed by the same terms subtracted, so that it
    cancels to an exact zero."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = [rng.choice(NOT_FLAT if rng.random() < 0.08 else atoms)
                   for _ in range(rng.randint(1, 4))]
        terms.append("*".join(rng.choice(("", "", "", "-", "- -")) + f for f in factors))
    ops = [rng.choice(("+", "-")) for _ in terms]
    if rng.random() < 0.3:
        terms, ops = terms + terms, ops + [{"+": "-", "-": "+"}[op] for op in ops]
    text = "".join(f" {op} {term}" for op, term in zip(ops, terms))[3:]
    return ("-" + text) if ops[0] == "-" else text


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


@pytest.mark.parametrize("name", KINDS)
def test_inline_cases_match_the_reference_in_every_kind(name):
    kind, _ = KINDS[name]
    for text in INLINE_CASES:
        assert evaluate(_parse_expr, text, kind) == evaluate(ref_parse_expr, text, kind), text


@pytest.mark.parametrize("name", KINDS)
def test_random_inline_sums_match_the_reference_in_every_kind(name):
    kind, units = KINDS[name]
    rng = Random(f"inline-{name}")
    atoms = INLINE + units
    for _ in range(300):
        text = random_inline_expr(rng, atoms)
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


def test_power_of_an_exact_zero_says_it_cannot_invert_zero():
    with pytest.raises(SessionTypeError) as err:
        parse_session(session_with("(t-t)^-1"))
    assert (err.value.line, err.value.col) == (3, 37)
    assert str(err.value) == ("line 3, col 37: power -1 of a value with no inverse: "
                              "cannot invert zero")
    with pytest.raises(SessionTypeError) as err:
        ref_parse_expr(_Cursor("(t-t)^-1", 1), BASE)
    assert str(err.value) == "line 1, col 6: power -1 of a value with no inverse: cannot invert zero"


def test_power_of_a_zero_divisor_is_a_type_error_at_the_caret():
    witness = "witness w : from s to s mode etale(-1) u diag((1 + qi*sqrt(-1))^-1) alpha 1"
    text = session_with("1", "quaternion", "quaternion") + witness + "\n"
    with pytest.raises(SessionTypeError) as err:
        parse_session(text)
    assert (err.value.line, err.value.col) == (4, witness.index("^") + 1)


LIMITED = [  # entry, token the error is at, message start
    ("(1+t)^4000", "^", "power 4000 would build 4001 coefficients"),
    ("(1+t)^645", "^", "power 645 would build 646 coefficients and about 416670 bits in about "
                       "269168820 steps, above the literal limits of 1024 exponents, 1048576 bits "
                       "and 268435456 steps"),
    ("(7/9)^46080", "^", "power 46080 would build 1 coefficients and about 184320 bits in about "
                         "273715200 steps"),
    ("1 + t^4000000", "t", "a sum of degree span 4000000 is above the literal limit 1024"),
    ("t^-600 + 1 - t^600", "t", "a sum of degree span 1200 is above the literal limit 1024"),
    ("(1 + t^1000)*(1 + t^1000)", "(", "a product of degree span 2000 is above the literal limit"),
    ("2^524289", "^", "power 524289 would build 1 coefficients and about 1048578 bits"),
    ("(3 + t)^800", "^", "power 800 would build 801 coefficients and about 1281600 bits"),
    # sqrt(d)^2 = d: each factor may add the bits of |d| to the size
    ("(1+sqrt(-1000003))^200000", "^", "power 200000 would build 1 coefficients and about "
                                       "4200000 bits in about 17220000000 steps"),
]
KIND_WORDS = {"(1+sqrt(-1000003))^200000": "quadratic(-1000003)"}  # the rest are base


@pytest.mark.parametrize("entry, at, message", LIMITED)
def test_a_literal_over_its_limits_is_a_type_error_before_it_is_built(entry, at, message):
    text = session_with(entry, KIND_WORDS.get(entry, "base"))
    line = text.splitlines()[2]
    times = []
    for _ in range(3):  # the best of three, so a busy machine does not fail it
        start = time.perf_counter()
        with pytest.raises(SessionTypeError) as err:
            parse_session(text)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.01
    assert (err.value.line, err.value.col) == (3, line.rindex(at) + 1)
    assert str(err.value).startswith(f"line 3, col {err.value.col}: {message}")


# Eight factors, each a power the limits admit: the product is refused at
# the first * whose work is over the limit, before that product is built.
# The factors before it are built, so these take longer than a row of
# LIMITED; the reader before this bound parsed the first for 2 s and the
# second for 1 s before its span limit stopped it at the fifth factor.
PRODUCTS = [  # entry, kind, factors before the * the error is at, message
    ("(7/9)^46079", "base", 1, "a product of about 292134 bits in about 684469962 steps is "
                               "above the literal limit 268435456"),
    ("(1+qi+qj*t+qk*t)^255", "quaternion", 2, "a product of about 861 bits in about 449648640 "
                                              "steps is above the literal limit 268435456"),
]


@pytest.mark.parametrize("x, name, before, message", PRODUCTS)
def test_a_product_over_the_work_limit_is_a_type_error_at_its_star(x, name, before, message):
    text = session_with("*".join([x] * 8), name, "quaternion" if name == "quaternion" else "none")
    line = text.splitlines()[2]
    times = []
    for _ in range(2):  # the best of two, so a busy machine does not fail it
        start = time.perf_counter()
        with pytest.raises(SessionTypeError) as err:
            parse_session(text)
        times.append(time.perf_counter() - start)
    assert min(times) < 1.0
    col = line.index(x) + before * (len(x) + 1)  # 1-based, after `before` factors
    assert line[col - 1] == "*" and (err.value.line, err.value.col) == (3, col)
    assert str(err.value) == f"line 3, col {col}: {message}"


BIG = "9" * 20000  # a flat factor of about 66000 bits

# Each product a term takes is charged, at the * before the factors it
# multiplies in: the flat factors after a value, at the end of the term
# or before the next value, also past a doubled -, and a value.
CHARGED = [  # entry, the * of the line (counted from 0) the error is at
    ("(7/9)^40000*" + BIG, 0),
    ("(7/9)^40000*" + BIG + "*(1+t)", 0),
    ("(7/9)^40000*t*- -" + BIG, 0),
    (BIG + "*(7/9)^40000", 0),
    ("(7/9)^40000*- -(7/9)^40000", 0),
    ("(7/9)^20000*2*(7/9)^40000", 1),
]


@pytest.mark.parametrize("entry, star", CHARGED, ids=range(len(CHARGED)))
def test_every_product_of_a_term_is_charged_at_its_star(entry, star):
    text = session_with(entry)
    line = text.splitlines()[2]
    with pytest.raises(SessionTypeError) as err:
        parse_session(text)
    col = [i + 1 for i, ch in enumerate(line) if ch == "*"][star]
    assert str(err.value).startswith(f"line 3, col {col}: a product of about ")
    assert str(err.value).endswith(" steps is above the literal limit 268435456")


@pytest.mark.parametrize("entry", ["1 + t^1024", "t^-512*(1 + t^512)*(1 + t^512)",
                                   "2^524288", "(3 + t)^10", "t^99999999999999999999",
                                   "*".join(["(7/9)^4000"] * 8)])
def test_a_literal_at_its_limits_parses(entry):
    assert session_module.SPAN_LIMIT == 1 << 10 and session_module.BITS_LIMIT == 1 << 20
    parse_session(session_with(entry))


# One row per error that a factor other than a flat atom can raise, with
# the text and position that the reader before the one on integer rows
# gave it: entry (the alpha at the end of line 4), error type, message and
# column (None at the end of the line).
NOT_FLAT_ERRORS = [
    ("- -*t", SessionSyntaxError, "unexpected token '*' in expression", 51),
    ("2*- -", SessionSyntaxError, "unexpected end of line", None),
    ("1 + qi", SessionTypeError, "qi is not a scalar of kind base", 52),
    ("2*sqrt(5)", SessionTypeError, "sqrt(5) is not a scalar of kind base", 50),
    ("sqrt(-3", SessionSyntaxError, "expected ')', got end of line", None),
    ("sqrt(x)", SessionSyntaxError, "expected 'INT', got 'x'", 53),
    ("1/0", SessionTypeError, "zero denominator in 1/0", 50),
    ("3*1/t", SessionSyntaxError, "expected 'INT', got 't'", 52),
    ("(1+t", SessionSyntaxError, "expected ')', got end of line", None),
    ("t^", SessionSyntaxError, "expected 'INT', got end of line", None),
    ("t^x", SessionSyntaxError, "expected 'INT', got 'x'", 50),
    ("2*(1 + t)^", SessionSyntaxError, "expected 'INT', got end of line", None),
    ("(1+t)^-1", SessionTypeError, "power -1 of a value that is not a monomial: entries are exact "
     "Laurent polynomials; multiply u by the denominator and alpha by its norm", 53),
    ("0^-1", SessionTypeError, "power -1 of a value with no inverse: zero scalar", 49),
    ("(t-t)^-1", SessionTypeError, "power -1 of a value with no inverse: cannot invert zero", 53),
    ("1 + ]", SessionSyntaxError, "unexpected token ']' in expression", 52),
]


@pytest.mark.parametrize("entry, error, message, col", NOT_FLAT_ERRORS)
def test_an_error_keeps_its_text_and_position(entry, error, message, col):
    witness = f"witness w : from s to s mode F u diag(1) alpha {entry}\n"
    with pytest.raises(error) as err:
        parse_session(session_with("1") + witness)
    assert type(err.value) is error and (err.value.line, err.value.col) == (4, col)
    assert str(err.value).split(": ", 1)[1] == message


def test_a_nested_powered_literal_builds_no_jet_product_power_or_inverse(monkeypatch):
    text = "((1 + qi*t)^3 - 2*(qj - t)^2*(2*t*qk)^-1)^2*- -(1/2 + t)*qj^-3 + (qi - qi)^0"
    want = ref_parse_expr(_Cursor(text, 1), QUATERNION)
    calls = Counter()
    for name in ("__mul__", "__pow__", "inverse"):
        def counted(self, *args, _name=name, _method=getattr(LaurentJet, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(LaurentJet, name, counted)
    assert _parse_expr(_Cursor(text, 1), QUATERNION) == want
    assert not calls


# The largest power of each shape that the limits admit (one more is
# refused): the work term holds each to a fraction of a second.
LARGEST_POWERS = [
    ("(1+t)", 644, "base"),
    ("(3+t+t^2)", 322, "base"),
    ("(1+qi+qj*t+qk*t)", 255, "quaternion"),
    ("(2+3*qi+5*qj+7*qk)", 87381, "quaternion"),
    ("(7/9)", 46079, "base"),
]


@pytest.mark.parametrize("x, k, name", LARGEST_POWERS)
def test_the_largest_power_the_limits_admit_parses_in_well_under_a_second(x, k, name):
    kind = KINDS[name][0]
    with pytest.raises(SessionTypeError, match=f"power {k + 1} would build"):
        _parse_expr(_Cursor(f"{x}^{k + 1}", 1), kind)
    times = []
    for _ in range(3):  # the best of three, so a busy machine does not fail it
        start = time.perf_counter()
        _parse_expr(_Cursor(f"{x}^{k}", 1), kind)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.5


@pytest.mark.parametrize("kind", [BASE, quadratic(-1), QUATERNION, ETALE], ids=str)
def test_products_of_values_match_the_coordinate_loop(kind):
    # values as the reader builds them: monomials (one row, even a zero
    # one) and sums (their nonzero rows), over a scale
    rng = Random(f"times:{kind}")

    def row():
        return [rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(kind.dim)]

    def value():
        if rng.random() < 0.4:
            mono = [0] * kind.dim if rng.random() < 0.2 else row()
            return {rng.randint(-3, 3): mono}, rng.randint(1, 6), True
        rows = {e: r for e in rng.sample(range(-4, 5), rng.randint(0, 4)) if any(r := row())}
        return rows, rng.randint(1, 6), False

    flags = Counter()
    for _ in range(300):
        x, y = value(), value()
        got, want = _times(kind, x, y), ref_times(kind, x, y)
        assert ({e: tuple(r) for e, r in got[0].items()}, got[1], got[2]) == (
            {e: tuple(r) for e, r in want[0].items()}, want[1], want[2]), (x, y)
        flags[got[2], any(map(any, got[0].values()))] += 1
    assert set(flags) == {(True, True), (True, False), (False, True), (False, False)}
