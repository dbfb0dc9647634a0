"""Fused jet-matrix products, and the integer image shared by
field_invertible, inverse_valuations and inverse."""

from random import Random

import pytest

from horders import matrices
from horders.errors import InsufficientPrecision, NotInvertible, ScalarKindMismatch, SizeMismatch
from horders.matrices import JetMatrix
from horders.scalars import BASE, DEFAULT_PRECISION, QUATERNION, LaurentJet, Q, Scalar

from helpers import entrywise, random_jet, random_scalar, ref_gauss_jordan_inverse, ref_matmul
from test_scalars import REF_KINDS, kernel_jet


def mat(*rows) -> JetMatrix:
    """Base matrix whose entries are coefficient lists from t^0 up."""
    return JetMatrix.of([[LaurentJet.from_coeffs(BASE, 0, e) for e in row] for row in rows])


ONE = JetMatrix.diagonal([LaurentJet.one(BASE)])
# [[t, 1], [3t - 2, t]]: det = (t - 1)(t - 2), so D = 2 and t = 3 is the
# only one of the points 1, ..., D + 1 where it is regular
TWO_ROOTS = mat([[0, 1], [1]], [[-2, 3], [0, 1]])
CYCLE = mat([[1], [1], []], [[], [1], [1]], [[1], [], [-1]])


@pytest.mark.parametrize("build", [lambda: JetMatrix.of([]), lambda: JetMatrix.of([[]]),
                                   lambda: JetMatrix.diagonal([]), lambda: JetMatrix.dsum()],
                         ids=["of([])", "of([[]])", "diagonal([])", "dsum()"])
def test_an_empty_matrix_is_a_size_mismatch(build):
    with pytest.raises(SizeMismatch, match="^matrix must be nonempty$"):
        build()


@pytest.mark.parametrize("a, want", [
    (TWO_ROOTS, [[1, 0], [0, 1]]),
    (JetMatrix.dsum(ONE, TWO_ROOTS), [[0, None, None], [None, 1, 0], [None, 0, 1]]),
    (JetMatrix.dsum(JetMatrix.diagonal([LaurentJet.t_power(BASE, 5)]), TWO_ROOTS),
     [[-5, None, None], [None, 1, 0], [None, 0, 1]]),
])
def test_invertible_past_the_roots_of_the_determinant(a, want):
    assert a.field_invertible()
    assert a.inverse_valuations() == want


@pytest.mark.parametrize("a", [
    JetMatrix.dsum(ONE, mat([[1, 1], [1, 1]], [[1, 1], [1, 1]])),  # one singular component
    mat([[], []], [[1], [1]]),  # a zero row inside a connected component
    JetMatrix.diagonal([LaurentJet.zero(BASE)]),
    # det = 0, but the blocks on {1, 3} and {2} are regular: a component
    # follows nonzero entries above and below the diagonal
    CYCLE,
    JetMatrix.of([list(col) for col in zip(*CYCLE.rows)]),
])
def test_singular(a):
    assert not a.field_invertible()
    with pytest.raises(NotInvertible):
        a.inverse_valuations()


def test_first_difference_of_jets_alone_is_a_size_mismatch():
    # it used to raise a bare StopIteration looking for a matrix factor
    t = LaurentJet.t_power(BASE, 1)
    with pytest.raises(SizeMismatch):
        matrices.first_difference([t], [t, t])


QUAT_ONE = JetMatrix.diagonal([LaurentJet.one(QUATERNION)])


@pytest.mark.parametrize("call, error, message", [
    (lambda: JetMatrix(BASE, ((LaurentJet.one(QUATERNION),),)),
     ScalarKindMismatch, "entry kind quaternion in a base matrix"),
    (lambda: JetMatrix.dsum(ONE, QUAT_ONE),
     ScalarKindMismatch, "direct summands must share a scalar kind"),
    (lambda: ONE @ QUAT_ONE, ScalarKindMismatch, "base vs quaternion"),
    (lambda: ONE @ TWO_ROOTS, SizeMismatch, "1x1 vs 2x2"),
    (lambda: matrices.first_difference([ONE], [TWO_ROOTS]), SizeMismatch, "1x1 vs 2x2"),
    (lambda: matrices.first_difference(
        [ONE], [JetMatrix.diagonal([LaurentJet.from_coeffs(BASE, 0, [1], precision=3)])]),
     InsufficientPrecision, "products are compared exactly; every factor must be exact"),
])
def test_matrix_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_a_zero_row_is_singular_without_an_evaluation(monkeypatch):
    rng = Random(71)
    drawn = [[random_jet(BASE, rng, lowest=0) for _ in range(6)] for _ in range(6)]
    zero = [LaurentJet.zero(BASE)] * 6
    cases = [(JetMatrix.of(drawn), True),
             (JetMatrix.of([zero] + drawn[1:]), False),
             (JetMatrix.of(drawn[:3] + [zero] + drawn[4:]), False),
             (JetMatrix.dsum(mat([[], []], [[1], [1]]), JetMatrix.of(drawn)), False)]
    real, calls = matrices._bareiss, []
    monkeypatch.setattr(matrices, "_bareiss", lambda *args: calls.append(1) or real(*args))
    for a, want in cases:
        calls.clear()
        assert a.field_invertible() is want
        assert bool(calls) is want


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_matmul_matches_the_per_scalar_reference(kind):
    # kernel_jet draws exactly zero and zero-to-precision entries too, and
    # jet equality compares the precision
    rng = Random(37)
    for _ in range(12):
        n = rng.randint(1, 3)
        a, b = (JetMatrix(kind, tuple(tuple(kernel_jet(kind, rng) for _ in range(n))
                                      for _ in range(n))) for _ in range(2))
        assert a @ b == ref_matmul(a, b)


def test_matmul_precision_is_the_least_kept_product_precision():
    zero, t = LaurentJet.zero, LaurentJet.t_power
    a = JetMatrix.of([[zero(BASE), t(BASE, -2)], [zero(BASE, 2), LaurentJet.one(BASE)]])
    b = JetMatrix.of([[t(BASE, 0, precision=1), zero(BASE)], [zero(BASE, 3), t(BASE, 1)]])
    got = a @ b
    # row 0 skips the exactly zero a[0][0]: t^-2 * (0 mod t^3) is 0 mod t^1
    assert got.rows[0] == (zero(BASE, 1), t(BASE, -1))
    # (0 mod t^2) * (1 mod t) is 0 mod t^2, and it is kept; times an
    # exact zero it is exactly zero
    assert got.rows[1] == (zero(BASE, 2), t(BASE, 1))
    assert got == ref_matmul(a, b)


def inverse_case(kind, rng) -> JetMatrix:
    """An exact matrix of exactly zero, monomial and short polynomial
    entries; upper triangular a third of the time, so that many are units
    over the Laurent polynomials and invert exactly."""
    n = rng.randint(1, 3 if kind.ext is not None else 4)
    triangular = rng.random() < 1 / 3

    def entry(i, j):
        r = rng.random()
        if r < 0.3 or (triangular and i > j):
            return LaurentJet.zero(kind)
        width = 1 if r < 0.65 or (triangular and i == j) else rng.randint(2, 3)
        return LaurentJet(kind, rng.randint(-3, 3), [random_scalar(kind, rng, 2) for _ in range(width)])

    return JetMatrix(kind, tuple(tuple(entry(i, j) for j in range(n)) for i in range(n)))


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_inverse_matches_the_gauss_jordan_reference(kind):
    rng = Random(59)
    for _ in range(16):
        a = inverse_case(kind, rng)
        if not a.field_invertible():
            with pytest.raises(NotInvertible):
                a.inverse()
            continue
        inv = a.inverse()
        one = JetMatrix.diagonal([LaurentJet.one(kind)] * a.n)
        assert (a @ inv).agrees(one) and (inv @ a).agrees(one)
        try:
            ref = ref_gauss_jordan_inverse(a)
        except NotInvertible:  # a zero-divisor pivot the reference cannot use
            ref = None
        if ref is not None:
            assert inv.agrees(ref)
            assert inv.is_exact or not ref.is_exact
        for e in (e for row in inv.rows for e in row if not e.is_exact):
            assert e.precision == e.valuation() + DEFAULT_PRECISION


def test_inverse_past_a_zero_divisor_pivot():
    # (qi * sqrt(-1))^2 = 1, so e = (1 + qi*sqrt(-1)) / 2 and 1 - e are
    # orthogonal idempotents: every entry is a zero divisor, yet
    # a = 2 * [[e, 1 - e], [1 - e, e]] is a unit with inverse a / 4
    kind = QUATERNION.extended(-1)
    r = Scalar.basis(kind, 1) * Scalar.ext_gen(kind)
    p, m = (LaurentJet.constant(kind, Scalar.one(kind) + s) for s in (r, -r))
    a = JetMatrix.of([[p, m], [m, p]])
    assert a.field_invertible()
    inv = a.inverse()
    quarter = LaurentJet.constant(kind, Q(1, 4))
    assert inv == entrywise(lambda e: quarter * e, a)
    one = JetMatrix.diagonal([LaurentJet.one(kind)] * 2)
    assert a @ inv == one and inv @ a == one
