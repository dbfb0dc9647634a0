"""Adversarial inputs inside the documented limits: one per super-linear
path that has been mended, and one session at each limit of the README's
table.  Each pins a deterministic count where one exists, and a
wall-time budget with at least ten times headroom."""

import time
from random import Random

import pytest

from horders import matrices, scalars
from horders.basechange import SH_LIMIT
from horders.involutions import InvolutionSpec, wellformed
from horders.matrices import JetMatrix
from horders.orders import BlockOrder, DivisionSpec, Signature, cyclic_normal_form
from horders.scalars import BASE, QUATERNION, LaurentJet, Scalar, quadratic
from horders.session import SPAN_LIMIT, parse_session, run_session


def _quaternion(rng: Random) -> Scalar:
    return Scalar(QUATERNION, [rng.randint(-3, 3) for _ in range(4)])


def _dense(rng: Random, n: int) -> JetMatrix:
    # a dense quaternion n x n matrix with entries c0 + c1 * t
    return JetMatrix.of([[LaurentJet(QUATERNION, 0, [_quaternion(rng), _quaternion(rng)])
                          for _ in range(n)] for _ in range(n)])


def _spy_eliminations(monkeypatch) -> list[int]:
    """The sizes of every ``_eliminate`` call, matrices' and scalars'."""
    real, sizes = scalars._eliminate, []

    def spy(kind, rows):
        sizes.append(len(rows))
        return real(kind, rows)

    monkeypatch.setattr(matrices, "_eliminate", spy)
    monkeypatch.setattr(scalars, "_eliminate", spy)
    return sizes


def test_a_dense_quaternion_gauge_is_wellformed_without_an_elimination(monkeypatch):
    # tau(u) * u for a dense 12 x 12 u with entries c0 + c1 * t on block(D; 12):
    # its image at X = 2^B is a 48 x 48 elimination on integers of thousands
    # of bits (40 s for delta alone), but its leading matrix tau(c0) * c0 is
    # a unit, so delta = 0 is read off it
    n = 12
    u = _dense(Random(12), n)
    gauge = u.conj_transpose() @ u
    spec = InvolutionSpec(BlockOrder(DivisionSpec("H", QUATERNION, 2, 1), Signature((n,))), gauge)
    sizes = _spy_eliminations(monkeypatch)
    start = time.perf_counter()
    assert wellformed(spec).ok
    assert time.perf_counter() - start < 1
    assert sizes == []


def test_a_refused_gauge_with_singular_leading_matrices_is_eliminated_once(monkeypatch):
    # tau(u) * diag(1, 1, 1, t) * u on each of three 4 x 4 components, u a
    # dense quaternion matrix with entries c0 + c1 * t: each leading matrix
    # tau(c0) * diag(1, 1, 1, 0) * c0 has rank 3, so delta is not read off
    # and the gauge goes straight to the row-by-row pass, whose
    # inverse_valuations eliminates each component once
    rng, n = Random(4), 4
    one = LaurentJet.one(QUATERNION)
    middle = JetMatrix.diagonal([one] * (n - 1) + [LaurentJet.t_power(QUATERNION, 1)])
    blocks = []
    for _ in range(3):
        u = _dense(rng, n)
        blocks.append(u.conj_transpose() @ middle @ u)
    a = JetMatrix.dsum(*blocks)
    assert [lows for _, lows in a._readings()] == [None] * 3  # each component is open
    spec = InvolutionSpec(BlockOrder(DivisionSpec("H", QUATERNION, 2, 1), Signature((a.n,))), a)
    sizes = _spy_eliminations(monkeypatch)
    start = time.perf_counter()
    diagnostics = wellformed(spec)
    assert time.perf_counter() - start < 2
    assert (diagnostics.code, diagnostics.detail) == (
        "NotStable", "generator t^0*e[1,1] leaves the order at entry 1,1")
    assert sizes == [n] * 3


def test_a_zero_row_is_found_before_any_elimination(monkeypatch):
    # tau(u) * u for a dense quaternion 6 x 6 u, and a zero 1 x 1 component:
    # delta is not read off, so the gauge goes to the row-by-row pass, and
    # inverse_valuations finds the zero row before it eliminates the dense
    # component, which would take 0.6 s
    u = _dense(Random(6), 6)
    a = JetMatrix.dsum(u.conj_transpose() @ u, JetMatrix.diagonal([LaurentJet.zero(QUATERNION)]))
    spec = InvolutionSpec(BlockOrder(DivisionSpec("H", QUATERNION, 2, 1), Signature((a.n,))), a)
    sizes = _spy_eliminations(monkeypatch)
    start = time.perf_counter()
    diagnostics = wellformed(spec)
    assert time.perf_counter() - start < 1
    assert (diagnostics.code, diagnostics.detail) == (
        "NotInvertible", "gauge is not invertible over the Laurent field")
    assert sizes == []


def test_a_singular_component_is_solved_before_the_units(monkeypatch):
    # tau(u) * u for a dense quaternion 6 x 6 u, a unit, and [[1, 1], [1, 1]],
    # open and singular: inverse_valuations solves the open component
    # first, so it raises without eliminating the 24 x 24 image of the unit
    # (0.4 s)
    u, one = _dense(Random(6), 6), LaurentJet.one(QUATERNION)
    a = JetMatrix.dsum(u.conj_transpose() @ u, JetMatrix.of([[one, one], [one, one]]))
    assert [lows for _, lows in a._readings()] == [None, [0] * 6]  # open, then the unit
    spec = InvolutionSpec(BlockOrder(DivisionSpec("H", QUATERNION, 2, 1), Signature((a.n,))), a)
    sizes = _spy_eliminations(monkeypatch)
    start = time.perf_counter()
    diagnostics = wellformed(spec)
    assert time.perf_counter() - start < 1
    assert (diagnostics.code, diagnostics.detail) == (
        "NotInvertible", "gauge is not invertible over the Laurent field")
    assert sizes == [2]


def test_a_zero_column_is_singular_at_the_span_limit(monkeypatch):
    # an F-mode witness u with 1 + 3*t^k on the diagonal and an exactly zero
    # last column: m = W[1][1] is not zero but the identity fails, so
    # transport asks whether u is invertible over the Laurent field.  Its
    # D + 1 = 4 * 3 * k + 1 points took 0.24 s at k = 25 and 12 s at
    # k = 100; the zero column reads the component singular, with no point
    d = f"1+3*t^{SPAN_LIMIT}"
    session = parse_session(
        "division D = quaternion s=2 t=1\n"
        "order A = block(D; 4)\n"
        "involution s on A : gauge diag(1, 1, 1, 1) eps +1 conj quaternion\n"
        f"witness w : from s to s mode F u mat[[{d},0,0,0],[0,{d},0,0],[0,0,{d},0],[1,1,1,0]] "
        "alpha 1\n"
        "check tr = transport(w) expect false\n")

    def evaluated(*args):  # fails at the first point, not after 12,289 of them
        raise AssertionError("field_invertible evaluated a point")

    monkeypatch.setattr(matrices, "_bareiss", evaluated)
    start = time.perf_counter()
    (check,) = run_session(session).checks
    assert time.perf_counter() - start < 1
    assert (check.actual, check.ok, check.detail) == (
        "false", True, "NotInvertible: u is not invertible over the Laurent field")


def test_the_least_rotation_of_many_tied_parts_is_linear():
    # 65,535 ones and a 2: each of the 65,535 ties of the least part would
    # cost a slice and a comparison of 65,536 parts (about 20 s); Booth's
    # failure function takes one pass over parts + parts
    parts = (1,) * (SH_LIMIT - 1) + (2,)
    start = time.perf_counter()
    assert cyclic_normal_form(parts[-1:] + parts[:-1]) == parts
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("kind", [BASE, quadratic(-1), QUATERNION], ids=str)
def test_a_diagonal_gauge_is_read_with_no_elimination(kind, monkeypatch):
    # a nonzero 1 x 1 component over a division algebra is a unit with no
    # smat_invertible: wellformed and field_invertible eliminate nothing
    n = 8
    gauge = JetMatrix.diagonal([LaurentJet.from_coeffs(kind, 0, [i + 1, (-1) ** i])
                                for i in range(n)])
    spec = InvolutionSpec(BlockOrder(DivisionSpec("D", kind, 1, 1), Signature((n,))), gauge)
    sizes, asked = _spy_eliminations(monkeypatch), []
    real = scalars.smat_invertible
    monkeypatch.setattr(matrices, "smat_invertible", lambda rows: asked.append(1) or real(rows))
    assert wellformed(spec).ok
    assert gauge.field_invertible()
    assert sizes == [] and asked == []


_ONES = ",".join(["1"] * (SH_LIMIT // 4))

# One session per documented limit, at that limit, with the worst input
# known to run in bounded time inside it (README, "Limits"): its checks'
# actual values and diagnostic codes, and a budget in seconds.  At the
# literal limits most of the time goes to the products of u's entries of
# 130,000 to 280,000 bits; a failed identity prints the entry's bit size,
# not its decimal digits, so every detail stays short.
AT_THE_LIMITS = {
    "BITS_LIMIT": (
        "division D = base s=1 t=1\norder A = block(D; 2)\n"
        "involution s on A : gauge diag(1, 1) eps +1 conj none\n"
        "witness w : from s to s mode F u diag((7/9)^46079, 1) alpha 1\n"
        "check v = verify(w) expect false\n", [("false", "IdentityMismatch")], 10),
    "WORK_LIMIT": (
        "division D = quaternion s=2 t=1\norder A = block(D; 2)\n"
        "involution s on A : gauge diag(1, 1) eps +1 conj quaternion\n"
        "witness w : from s to s mode F u diag((2+3*qi+5*qj+7*qk)^87381, 1) alpha 1\n"
        "check v = verify(w) expect false\n", [("false", "IdentityMismatch")], 15),
    "SH_LIMIT": (
        f"division D = base s=2 t=2\norder A = block(D; {_ONES})\n"
        "check b = becomes_iso_after_sh(A, A) expect true\n", [("true", "")], 1),
    "discriminant": (
        "division D = quadratic(-2147483647) s=1 t=1\norder A = block(D; 1)\n"
        "involution s on A : gauge diag(1) eps +1 conj quadratic\n"
        "check wf = wellformed(s) expect true\n", [("true", "ok")], 1),
}


@pytest.mark.parametrize("limit", list(AT_THE_LIMITS))
def test_a_session_at_a_limit_runs_within_its_budget(limit):
    text, want, budget = AT_THE_LIMITS[limit]
    start = time.perf_counter()
    checks = run_session(parse_session(text)).checks
    assert time.perf_counter() - start < budget
    assert [(c.actual, c.detail.split(":")[0]) for c in checks] == want
    assert all(c.ok and len(c.detail) < 200 for c in checks)
