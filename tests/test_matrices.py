"""Fused jet-matrix products, and the integer image shared by
field_invertible and inverse_valuations."""

from random import Random

import pytest

from horders.errors import NotInvertible
from horders.matrices import JetMatrix
from horders.scalars import BASE, LaurentJet

from helpers import ref_matmul
from test_scalars import REF_KINDS, kernel_jet


def mat(*rows) -> JetMatrix:
    """Base matrix whose entries are coefficient lists from t^0 up."""
    return JetMatrix.of([[LaurentJet.from_coeffs(BASE, 0, e) for e in row] for row in rows])


ONE = JetMatrix.identity(BASE, 1)
# [[t, 1], [3t - 2, t]]: det = (t - 1)(t - 2), so D = 2 and t = 3 is the
# only one of the points 1, ..., D + 1 where it is regular
TWO_ROOTS = mat([[0, 1], [1]], [[-2, 3], [0, 1]])
CYCLE = mat([[1], [1], []], [[], [1], [1]], [[1], [], [-1]])


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
    JetMatrix.zeros(BASE, 1),
    # det = 0, but the blocks on {1, 3} and {2} are regular: a component
    # follows nonzero entries above and below the diagonal
    CYCLE,
    JetMatrix.of([list(col) for col in zip(*CYCLE.rows)]),
])
def test_singular(a):
    assert not a.field_invertible()
    with pytest.raises(NotInvertible):
        a.inverse_valuations()


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
