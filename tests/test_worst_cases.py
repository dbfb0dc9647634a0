"""Adversarial inputs inside the documented limits, one per super-linear
path that has been mended: each pins a deterministic count where one
exists, and a wall-time budget with at least ten times headroom."""

import time
from random import Random

from horders import matrices, scalars
from horders.involutions import InvolutionSpec, wellformed
from horders.matrices import JetMatrix
from horders.orders import BlockOrder, DivisionSpec, Signature
from horders.scalars import QUATERNION, LaurentJet, Scalar, smat_invertible


def _quaternion(rng: Random) -> Scalar:
    return Scalar(QUATERNION, [rng.randint(-3, 3) for _ in range(4)])


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
    rng, n = Random(12), 12
    u = JetMatrix.of([[LaurentJet(QUATERNION, 0, [_quaternion(rng), _quaternion(rng)])
                       for _ in range(n)] for _ in range(n)])
    gauge = u.conj_transpose() @ u
    spec = InvolutionSpec(BlockOrder(DivisionSpec("H", QUATERNION, 2, 1), Signature((n,))), gauge)
    sizes = _spy_eliminations(monkeypatch)
    start = time.perf_counter()
    assert wellformed(spec).ok
    assert time.perf_counter() - start < 1
    assert sizes == []


def test_a_singular_leading_matrix_is_eliminated_once_per_component(monkeypatch):
    # three dense quaternion 4 x 4 components P * E * diag(1, 1, 1, t) * E^T * Q,
    # E unipotent with every entry below the diagonal 1 and P, Q constant
    # units: each leading matrix has rank 3, each det has valuation 1
    rng, n, blocks = Random(4), 4, []
    one, zero = LaurentJet.one(QUATERNION), LaurentJet.zero(QUATERNION)
    e = JetMatrix.of([[one if i >= j else zero for j in range(n)] for i in range(n)])
    middle = JetMatrix.diagonal([one] * (n - 1) + [LaurentJet.t_power(QUATERNION, 1)])
    while len(blocks) < 3:
        p, q = ([[_quaternion(rng) for _ in range(n)] for _ in range(n)] for _ in range(2))
        if smat_invertible(p) and smat_invertible(q):
            p, q = (JetMatrix.of([[LaurentJet.constant(QUATERNION, x) for x in row]
                                  for row in m]) for m in (p, q))
            blocks.append(p @ e @ middle @ e.conj_transpose() @ q)
    a = JetMatrix.dsum(*blocks)
    assert all(a._leading_unit(comp) is None for comp in a._components())
    sizes = _spy_eliminations(monkeypatch)
    start = time.perf_counter()
    assert a.det_valuation() == 3
    assert time.perf_counter() - start < 1
    assert sizes == [n] * 3
