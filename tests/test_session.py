"""Session-file parsing, printing, running, and determinism."""

from importlib import resources

import pytest

from horders.cli import emit
from horders.errors import (
    DuplicateIdentifier,
    SessionSyntaxError,
    SessionTypeError,
    UnknownIdentifier,
)
from horders.orders import BlockOrder, SemisimpleOrder
from horders.scalars import QUATERNION, Q
from horders.session import parse_session, print_session, run_session


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
    assert err.value.line == 2


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


@pytest.mark.parametrize("entry, precision", [
    ("1 + t mod t^3", 3),
    ("(1+t)^-1 mod t^5", 5),
    ("(1+t)^-1 mod t^40", 16),  # the inverse is only known mod t^16
    ("t^-5 - t^-3 mod t^-4", -4),
    ("0 mod t^2", 2),
])
def test_mod_keeps_the_smaller_precision(entry, precision):
    from horders.scalars import BASE, LaurentJet

    def gauge_entry(expr):
        text = ("division D = base s=1 t=1\norder A = block(D; 1)\n"
                f"involution s on A : gauge diag({expr}) eps +1 conj none\n")
        return parse_session(text).involutions["s"].gauge.entry(0, 0)

    e, whole = gauge_entry(entry), gauge_entry(entry.split(" mod ")[0])
    assert e.precision == precision
    assert e == LaurentJet(BASE, whole.lowest_exp, whole.coeffs, precision)


def test_parenthesised_products_parse():
    text = ("division D = quaternion s=2 t=1\n"
            "order A = block(D; 2)\n"
            "involution s1 on A : gauge diag(t^2*(1 - qi), (1 + qj)*(1 - qj)) eps +1 conj quaternion\n")
    s = parse_session(text)
    g = s.involutions["s1"].gauge
    from horders.scalars import QUATERNION, LaurentJet, Scalar
    assert g.entry(1, 1) == LaurentJet.constant(QUATERNION, Scalar.rational(QUATERNION, 2))
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


def test_failed_expectations_are_reported_not_raised():
    text = "check c = sh_verify(2, 2, (1,2)) expect false\n"
    report = run_session(parse_session(text))
    assert not report.ok
    assert report.checks[0].actual == "true"


def test_emit_json_is_deterministic():
    s = parse_session(corpus("main-counterexample.ho"))
    r1 = emit(run_session(s, seed=5), "json")
    r2 = emit(run_session(parse_session(corpus("main-counterexample.ho")), seed=5), "json")
    assert r1 == r2
    assert b'"schema": 1' in r1


def test_emit_text_mentions_every_check():
    s = parse_session(corpus("semisimple-basechange.ho"))
    text = emit(run_session(s), "text").decode()
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
