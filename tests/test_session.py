"""Session-file parsing, printing, running, and determinism."""

import time
from importlib import resources

import pytest

from horders.cli import main
from horders.errors import (
    DuplicateIdentifier,
    InsufficientPrecision,
    SessionSyntaxError,
    SessionTypeError,
    UnknownIdentifier,
)
from horders.matrices import JetMatrix
from horders.orders import BlockOrder, SemisimpleOrder
from horders.scalars import BASE, QUATERNION, LaurentJet, Q
from horders.session import parse_session, print_session, run_session
from horders.witness import MODE_F, WitnessCheck


def corpus(name: str) -> str:
    return resources.files("horders.sessions").joinpath(name).read_text(encoding="utf-8")


def test_minimal_session():
    s = parse_session("division D = quaternion s=2 t=1\norder A = block(D; 4,2)\n")
    assert len(s.declarations) == 2
    a = s.orders["A"]
    assert isinstance(a, BlockOrder)
    assert a.sig.parts == (4, 2)
    assert a.division.kind == QUATERNION
    assert (a.division.s, a.division.t) == (2, 1)


def test_unknown_identifier_with_position():
    with pytest.raises(UnknownIdentifier) as err:
        parse_session("order A = block(D; 4,2)\n")
    assert err.value.line == 1


def test_redefinition_is_rejected():
    text = "division D = base s=1 t=1\ndivision D = base s=1 t=1\n"
    with pytest.raises(DuplicateIdentifier) as err:
        parse_session(text)
    assert (err.value.line, err.value.col) == (2, 10)  # at the name


def test_syntax_error_has_position():
    with pytest.raises(SessionSyntaxError) as err:
        parse_session("division D = %\n")
    assert err.value.line == 1


@pytest.mark.parametrize("line, col", [
    ("order B = block(D; 2\u00b2)", 21),
    ("involution s on A : gauge diag(1, \u00b2) eps +1 conj none", 35),
])
def test_non_ascii_digits_are_unexpected_characters(line, col):
    text = "division D = base s=1 t=1\norder A = block(D; 1)\n" + line + "\n"
    with pytest.raises(SessionSyntaxError) as err:
        parse_session(text)
    assert (err.value.line, err.value.col) == (3, col)
    assert "unexpected character '\u00b2'" in str(err.value)


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1e", "\x85", "\u2028", "\u2029"])
def test_a_line_separator_inside_a_comment_does_not_end_it(sep):
    text = f"division D = base s=1 t=1\n# retired: {sep}order A = block(D; 1)\n"
    assert list(parse_session(text).orders) == []
    with pytest.raises(SessionSyntaxError) as err:
        parse_session(text + "order B = %\n")
    assert (err.value.line, err.value.col) == (3, 11)


def test_a_form_feed_mid_line_is_unexpected_on_its_physical_line():
    text = "division D = base s=1 t=1\norder A = \fblock(D; 1)\norder B = block(D; 1)\n"
    with pytest.raises(SessionSyntaxError) as err:
        parse_session(text)
    assert (err.value.line, err.value.col) == (2, 11)
    assert "unexpected character '\\x0c'" in str(err.value)


@pytest.mark.parametrize("end", ["\r", "\r\n"])
def test_carriage_return_line_ends_parse(end):
    text = end.join(["division D = base s=1 t=1", "order A = block(D; 1,1)",
                     "involution s on A : gauge diag(1,t) eps +1 conj none", ""])
    s = parse_session(text)
    assert [d.name for d in s.declarations] == ["D", "A", "s"]
    with pytest.raises(UnknownIdentifier) as err:
        parse_session(text + "order B = block(E; 1)" + end)
    assert err.value.line == 4


@pytest.mark.parametrize("opener", ["("])  # a run of - is read in a loop and does not nest
def test_deep_nesting_is_a_syntax_error_at_its_position(opener):
    line = f"involution s on A : gauge diag({opener * 3000}1{')' * 3000}) eps +1 conj none"
    with pytest.raises(SessionSyntaxError) as err:
        parse_session("division D = base s=1 t=1\norder A = block(D; 1)\n" + line + "\n")
    assert err.value.line == 3 and "nested too deeply" in str(err.value)
    assert line[err.value.col - 1] == opener  # the token the parser had reached


@pytest.mark.parametrize("signs, value", [(3000, "1"), (3001, "-1")])
def test_a_run_of_minus_signs_flips_the_sign_once_for_each(signs, value):
    line = f"involution s on A : gauge diag({'-' * signs}1) eps +1 conj none"
    s = parse_session("division D = base s=1 t=1\norder A = block(D; 1)\n" + line + "\n")
    assert str(s.declarations[-1].payload.gauge) == f"diag({value})"


def test_a_doubled_minus_before_a_zero_term_keeps_its_span():
    # as for 0*t^2000 + 1, the zero term's exponent counts in the span
    for expr, col in (("0*t^2000 + 1", 43), ("--0*t^2000 + 1", 45)):
        line = f"involution s on A : gauge diag({expr}) eps +1 conj none"
        with pytest.raises(SessionTypeError) as err:
            parse_session("division D = base s=1 t=1\norder A = block(D; 1)\n" + line + "\n")
        assert (err.value.line, err.value.col) == (3, col)
        assert "a sum of degree span 2000 is above the literal limit" in str(err.value)


@pytest.mark.parametrize("gauge, col, message", [
    ("mat[[]]", 32, "unexpected token ']' in expression"),
    ("diag()", 32, "unexpected token ')' in expression"),
    ("dsum()", 32, "expected 'IDENT', got ')'"),
])
def test_an_empty_matrix_literal_is_a_syntax_error_at_its_position(gauge, col, message):
    text = ("division D = base s=1 t=1\norder A = block(D; 2)\n"
            f"involution s on A : gauge {gauge} eps +1 conj none\n")
    with pytest.raises(SessionSyntaxError) as err:
        parse_session(text)
    assert (err.value.line, err.value.col) == (3, col)
    assert message in str(err.value)


def test_gauge_size_mismatch_is_a_type_error():
    text = ("division D = base s=1 t=1\n"
            "order A = block(D; 1,1)\n"
            "involution s1 on A : gauge diag(1,1,1) eps +1 conj none\n")
    with pytest.raises(SessionTypeError) as err:
        parse_session(text)
    assert err.value.line == 3


def test_conj_word_must_match_the_scalar_kind():
    text = ("division D = base s=1 t=1\n"
            "order A = block(D; 1,1)\n"
            "involution s1 on A : gauge diag(1,1) eps +1 conj quaternion\n")
    with pytest.raises(SessionTypeError):
        parse_session(text)


def test_quaternion_literals_need_a_quaternion_kind():
    text = ("division D = base s=1 t=1\n"
            "order A = block(D; 1,1)\n"
            "involution s1 on A : gauge diag(qi,1) eps +1 conj none\n")
    with pytest.raises(SessionTypeError):
        parse_session(text)


def test_nonsquare_mat_literal_is_rejected():
    text = ("division D = base s=1 t=1\n"
            "order A = block(D; 1,1)\n"
            "involution s1 on A : gauge mat[[1,0,0],[0,1,0]] eps +1 conj none\n")
    with pytest.raises((SessionTypeError, SessionSyntaxError)):
        parse_session(text)


def test_product_orders_flatten():
    text = ("division D = base s=1 t=1\n"
            "order A = block(D; 1)\n"
            "order B = block(D; 2)\n"
            "order E = product(A, B)\n")
    s = parse_session(text)
    e = s.orders["E"]
    assert isinstance(e, SemisimpleOrder)
    assert [c.sig.parts for c in e.components] == [(1,), (2,)]


def test_laurent_literals_parse():
    from fractions import Fraction as Q

    from horders.scalars import LaurentJet, Scalar, quadratic

    text = ("division K = quadratic(-1) s=1 t=2\n"
            "order A = block(K; 2)\n"
            "involution s1 on A : gauge diag(t^-1, 1/2 + 3*sqrt(-1)) eps +1 conj quadratic\n")
    s = parse_session(text)
    g = s.involutions["s1"].gauge
    kind = quadratic(-1)
    assert g.entry(0, 0) == LaurentJet.t_power(kind, -1)
    assert g.entry(1, 1) == LaurentJet.constant(kind, Scalar.of(kind, Q(1, 2), 3))
    assert parse_session(print_session(s)) == s


_TRUNCATED = LaurentJet.from_coeffs(BASE, 0, [1, 1], precision=3)  # 1 + t mod t^3
_ONE = LaurentJet.one(BASE)
_SESSION = ("division D = base s=1 t=1\norder A = block(D; 1)\n"
            "involution s on A : gauge diag(1) eps +1 conj none\n")


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: JetMatrix.of([[_TRUNCATED]]), InsufficientPrecision,
                 "matrix entries are exact Laurent polynomials, got 1 + t mod t^3",
                 id="JetMatrix.of"),
    pytest.param(lambda: JetMatrix.diagonal([_ONE, _TRUNCATED]), InsufficientPrecision,
                 "matrix entries are exact Laurent polynomials, got 1 + t mod t^3",
                 id="JetMatrix.diagonal"),
    pytest.param(lambda: JetMatrix(BASE, ((_ONE, _TRUNCATED), (_ONE, _ONE))),
                 InsufficientPrecision,
                 "matrix entries are exact Laurent polynomials, got 1 + t mod t^3",
                 id="JetMatrix"),
    # dsum takes built blocks, so the truncated entry stops at its block
    pytest.param(lambda: JetMatrix.dsum(JetMatrix.diagonal([_ONE]), JetMatrix.of([[_TRUNCATED]])),
                 InsufficientPrecision,
                 "matrix entries are exact Laurent polynomials, got 1 + t mod t^3",
                 id="JetMatrix.dsum"),
    pytest.param(lambda: WitnessCheck(JetMatrix.diagonal([_ONE]), _TRUNCATED, MODE_F,
                                      *[parse_session(_SESSION).involutions["s"]] * 2),
                 InsufficientPrecision, "alpha is an exact Laurent polynomial, got 1 + t mod t^3",
                 id="WitnessCheck-alpha"),
    pytest.param(lambda: parse_session(_SESSION.replace("diag(1)", "diag(1 + t mod t^3)")),
                 SessionSyntaxError, "line 3, col 38: expected ')', got 'mod'", id="session-mod"),
    pytest.param(lambda: parse_session(_SESSION + "witness w : from s to s mode F u diag(1) "
                                                  "alpha 1 mod t^2\n"),
                 SessionSyntaxError, "line 4, col 50: trailing input 'mod'", id="session-alpha-mod"),
    pytest.param(lambda: parse_session(_SESSION.replace("diag(1)", "diag((1+t)^-1)")),
                 SessionTypeError, "line 3, col 37: power -1 of a value that is not a monomial: "
                 "entries are exact Laurent polynomials; multiply u by the denominator and "
                 "alpha by its norm", id="session-inverse"),
])
def test_a_truncated_value_is_refused_where_it_is_built(build, error, message):
    # a matrix entry and alpha are exact Laurent polynomials; a session
    # literal has no ``mod t^N`` and no inverse of a non-monomial
    with pytest.raises(error) as err:
        build()
    assert str(err.value) == message


def test_parenthesised_products_parse():
    text = ("division D = quaternion s=2 t=1\n"
            "order A = block(D; 2)\n"
            "involution s1 on A : gauge diag(t^2*(1 - qi), (1 + qj)*(1 - qj)) eps +1 conj quaternion\n")
    s = parse_session(text)
    g = s.involutions["s1"].gauge
    from horders.scalars import QUATERNION, LaurentJet, Scalar
    assert g.entry(1, 1) == LaurentJet.constant(QUATERNION, Scalar.of(QUATERNION, 2))
    e = g.entry(0, 0)
    assert e.valuation() == 2
    assert e.coeff(2) == Scalar.of(QUATERNION, 1, -1)


def test_main_corpus_parses_with_eight_declarations():
    s = parse_session(corpus("main-counterexample.ho"))
    assert len(s.declarations) == 8
    assert set(s.involutions) == {"s1", "s2"}
    assert set(s.witnesses) == {"wF", "wE"}
    assert len(s.checks) == 2


@pytest.mark.parametrize("name", ["main-counterexample.ho", "semisimple-basechange.ho"])
def test_print_parse_round_trip(name):
    s = parse_session(corpus(name))
    printed = print_session(s)
    assert parse_session(printed) == s
    assert print_session(parse_session(printed)) == printed


def test_run_the_main_corpus():
    report = run_session(parse_session(corpus("main-counterexample.ho")))
    assert report.ok
    assert [c.name for c in report.checks] == ["transport_over_F", "residue_profiles"]


def test_run_the_semisimple_corpus():
    report = run_session(parse_session(corpus("semisimple-basechange.ho")))
    assert report.ok


def test_expected_error_checks_match():
    text = ("check bad = descend_sig((3,2), 2, 1) expect error NotDivisible\n"
            "check good = descend_sig((2,2), 1, 2) expect (2)\n"
            "check wrong = descend_sig((2,2), 1, 2) expect (7)\n")
    report = run_session(parse_session(text))
    assert [c.ok for c in report.checks] == [True, True, False]
    assert report.checks[0].actual == "error NotDivisible"


def test_an_sh_sig_over_the_bound_is_an_error_and_the_report_runs_on():
    text = ("division D = base s=1 t=100000\n"
            "order A = block(D; 4,2)\n"
            "check big = sh_sig(A) expect error SizeLimit\n"
            "check after = descend_sig((2,2), 1, 2) expect (2)\n")
    report = run_session(parse_session(text))
    assert [(c.actual, c.ok) for c in report.checks] == [("error SizeLimit", True), ("(2)", True)]


def test_a_base_change_check_over_the_bound_fails_fast_and_the_report_runs_on():
    text = ("division D = base s=1 t=100000000\n"
            "order A = block(D; 4,2)\n"
            "check big = becomes_iso_after_sh(A, A) expect error SizeLimit\n"
            "check after = descend_sig((2,2), 1, 2) expect (2)\n")
    session = parse_session(text)
    times = []
    for _ in range(3):  # the best of three, so a busy machine does not fail it
        start = time.perf_counter()
        report = run_session(session)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.01
    assert [(c.actual, c.ok) for c in report.checks] == [("error SizeLimit", True), ("(2)", True)]


def test_failed_expectations_are_reported_not_raised():
    text = "check c = sh_verify(2, 2, (1,2)) expect false\n"
    report = run_session(parse_session(text))
    assert not report.ok
    assert report.checks[0].actual == "true"


def check_output(name: str, capsysbinary, *flags: str) -> bytes:
    """stdout of ``horders check`` on a bundled session."""
    with resources.as_file(resources.files("horders.sessions").joinpath(name)) as path:
        assert main(["check", str(path), *flags]) == 0
    return capsysbinary.readouterr().out


def test_emit_json_is_deterministic(capsysbinary):
    r1 = check_output("main-counterexample.ho", capsysbinary, "--json")
    r2 = check_output("main-counterexample.ho", capsysbinary, "--json")
    assert r1 == r2
    assert b'"schema": 1' in r1


def test_emit_text_mentions_every_check(capsysbinary):
    s = parse_session(corpus("semisimple-basechange.ho"))
    text = check_output("semisimple-basechange.ho", capsysbinary).decode()
    for check in s.checks:
        assert check.name in text
    assert "5/5 checks passed" in text


def test_transport_checks_run_inside_sessions():
    text = corpus("main-counterexample.ho") + \
        "check moved = transport(wF, samples=5) expect true\n"
    report = run_session(parse_session(text), seed=1)
    assert report.ok


def test_aniso_check_with_block_argument():
    text = corpus("main-counterexample.ho") + (
        "check a1 = aniso(s1, block=2) expect anisotropic\n"
        "check a2 = aniso(s2, block=2) expect isotropic\n"
        "check r1 = residually_anisotropic(s1) expect false\n"
        "check w1 = wellformed(s1) expect true\n"
        "check i1 = inv(A) expect (2,4)\n")
    report = run_session(parse_session(text))
    assert report.ok, [c for c in report.checks if not c.ok]


@pytest.mark.parametrize("block", ["0", "9", "(1)"])
def test_bad_aniso_block_is_a_type_error(block):
    text = corpus("main-counterexample.ho") + \
        f"check a = aniso(s1, block={block}) expect anisotropic\n"
    with pytest.raises(SessionTypeError) as err:
        parse_session(text)
    assert err.value.line == text.count("\n")
    assert "block must be an integer in 1..2" in str(err.value)


@pytest.mark.parametrize("call", ["aniso(s1, block=1, block=2) expect anisotropic",
                                  "transport(wF, samples=1, samples=2) expect true"])
def test_a_repeated_keyword_is_a_type_error(call):
    text = corpus("main-counterexample.ho") + f"check c = {call}\n"
    with pytest.raises(SessionTypeError) as err:
        parse_session(text)
    assert (err.value.line, err.value.col) == (text.count("\n"), 11)
    assert "repeats keyword" in str(err.value)


@pytest.mark.parametrize("call", [
    "sh_verify(1, 1, (0))",
    "sh_verify(0, 1, (1))",
    "sh_verify(1, -2, (1))",
    "descend_sig((2,2), 0, 1)",
    "descend_sig((2,-2), 1, 1)",
])
def test_non_positive_arguments_are_type_errors(call):
    text = f"division D = base s=1 t=1\ncheck c = {call} expect true\n"
    with pytest.raises(SessionTypeError) as err:
        parse_session(text)
    assert err.value.line == 2
    assert "expects positive integers" in str(err.value)


def test_zero_denominator_is_a_type_error_at_its_token():
    text = ("division D = base s=1 t=1\n"
            "order A = block(D; 1,1)\n"
            "involution s1 on A : gauge diag(1/0,1) eps +1 conj none\n")
    with pytest.raises(SessionTypeError) as err:
        parse_session(text)
    assert (err.value.line, err.value.col) == (3, 35)
    assert "zero denominator" in str(err.value)


def test_run_session_builds_the_symbol_table_once(monkeypatch):
    from horders import session as session_module
    tables = []
    dispatch = session_module._dispatch

    def spy(table, decl):
        tables.append(table)
        return dispatch(table, decl)

    monkeypatch.setattr(session_module, "_dispatch", spy)
    s = parse_session(corpus("main-counterexample.ho"))
    assert run_session(s).ok
    assert len(tables) == len(s.checks) > 1
    assert all(t is tables[0] for t in tables)


def test_literals_past_the_string_limit_round_trip():
    digits = "1" + "0" * 5000  # 5,001 digits
    text = ("division D = base s=1 t=1\norder A = block(D; 1)\n"
            f"involution s on A : gauge diag({digits}/3) eps +1 conj none\n")
    s = parse_session(text)
    assert s.involutions["s"].gauge.entry(0, 0).coeffs[0].parts == (Q(10 ** 5000, 3),)
    printed = print_session(s)
    assert f"diag({digits}/3)" in printed
    assert parse_session(printed) == s


GUARDED = ("division D = base s=1 t=1\n"
           "order A = block(D; 1)\n"
           "order B = block(D; 2)\n"
           "order E = product(A, B)\n"
           "involution s on A : gauge diag(1) eps +1 conj none\n"
           "involution r on B : gauge diag(1,1) eps +1 conj none\n")


@pytest.mark.parametrize("line, col, message", [
    pytest.param("involution x on D : gauge diag(1) eps +1 conj none", 17,
                 "'D' is a division, expected order", id="division-for-an-order"),
    pytest.param("division F = base s=0 t=1", 21, "residue parameters s, t must be positive",
                 id="s=0"),
    pytest.param("division F = base s=1 t=0", 25, "residue parameters s, t must be positive",
                 id="t=0"),
    pytest.param("division F = quadratic(4) s=1 t=1", 24,
                 "quadratic kind needs a negative square-free d", id="quadratic(4)"),
    pytest.param("order F = block(D; 1,0,2)", 22, "signature parts must be positive integers",
                 id="zero-part"),
    pytest.param("involution x on A : gauge diag(1) eps +1 conj quaternion", 47,
                 "conj quaternion does not match the order's scalar kind "
                 "(base, expected conj none)", id="conj-mismatch"),
    pytest.param("involution x on A : gauge diag(1) eps +2 conj none", 39,
                 "epsilon must be +1 or -1", id="epsilon"),
    pytest.param("involution x on A : gauge diag(1,1) eps +1 conj none", 27,
                 "gauge is 2x2, order has size 1", id="gauge-size"),
    pytest.param("witness w : from s to s mode F u diag(1,1) alpha 1", 34,
                 "witness is 2x2, order has size 1", id="witness-size"),
    pytest.param("involution x on E : gauge diag(1,1,1) eps +1 conj none", 17,
                 "involutions are declared on block orders, 'E' is a product",
                 id="involution-on-a-product"),
    pytest.param("witness w : from s to r mode F u diag(1) alpha 1", 23,
                 "witness endpoints must share one order", id="endpoints-on-two-orders"),
    pytest.param("check c = iso(A) expect true", 11, "iso takes 2 arguments, got 1",
                 id="argument-count"),
    pytest.param("check c = inv(E) expect (1)", 15,
                 "inv expects a block order, 'E' is a product", id="product-for-a-block-order"),
    pytest.param("check c = descend_sig(A, 1, 1) expect (1)", 11,
                 "descend_sig expects a tuple argument, got ref", id="name-for-a-tuple"),
    *[pytest.param(f"witness w : from s to s mode etale({d}) u diag(1) alpha 1", 36,
                   "extension discriminant must be square-free and not a square",
                   id=f"etale({d})") for d in (4, 0, 1, -4)],
    pytest.param("witness w : from s to s mode etale(-2147483659) u diag(1) alpha 1", 36,
                 "a discriminant must be less than 2^31 in absolute value",
                 id="etale(-2147483659)"),
    pytest.param("division F = quadratic(-2147483659) s=1 t=1", 24,
                 "a discriminant must be less than 2^31 in absolute value",
                 id="quadratic(-2147483659)"),
])
def test_a_declaration_that_does_not_fit_is_a_type_error_at_its_position(line, col, message):
    with pytest.raises(SessionTypeError) as err:
        parse_session(GUARDED + line + "\n")
    assert (err.value.line, err.value.col) == (7, col)
    assert str(err.value) == f"line 7, col {col}: {message}"


@pytest.mark.parametrize("line, col, message", [
    ("division F = octonion s=1 t=1", 14, "expected base, quadratic or quaternion, got 'octonion'"),
    ("order F = blocks(D; 1)", 11, "expected block or product, got 'blocks'"),
    ("check c = iso(A, A) expect maybe", 28, "expected a verdict, a tuple or `error CODE`"),
    ("check c = iso(A, A) expect", None, "expected a verdict, a tuple or `error CODE`"),
])
def test_an_unexpected_word_is_a_syntax_error_at_its_position(line, col, message):
    # only an error at the end of the line has no column
    with pytest.raises(SessionSyntaxError) as err:
        parse_session(GUARDED + line + "\n")
    assert (err.value.line, err.value.col) == (7, col)
    where = "line 7" + ("" if col is None else f", col {col}")
    assert str(err.value) == f"{where}: {message}"


def test_a_quadratic_discriminant_below_the_bound_is_accepted():
    s = parse_session("division D = quadratic(-2147483647) s=1 t=1\n")  # 2^31 - 1 is prime
    assert s.divisions["D"].kind.d == -2147483647


def test_a_product_of_products_is_flattened():
    s = parse_session(GUARDED + "order F = product(E, A)\n")
    assert [c.sig.parts for c in s.orders["F"].components] == [(1,), (2,), (1,)]


@pytest.mark.parametrize("text, verdict, detail", [
    (GUARDED + "check c = aniso(s) expect anisotropic\n",
     "anisotropic", "block 1: anisotropic (1, 0)"),
    (corpus("main-counterexample.ho") + "check c = aniso(s1) expect isotropic\n",
     "isotropic", "block 1: isotropic (2, 2); block 2: anisotropic (2, 0)"),
])
def test_aniso_without_block_lists_every_block(text, verdict, detail):
    result = run_session(parse_session(text)).checks[-1]
    assert (result.actual, result.ok, result.detail) == (verdict, True, detail)
