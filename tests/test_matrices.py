"""The integer image shared by field_invertible and inverse_valuations."""

import pytest

from horders.errors import NotInvertible
from horders.matrices import JetMatrix
from horders.scalars import BASE, LaurentJet


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
