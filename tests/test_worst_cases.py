"""Adversarial inputs inside the documented limits, one per super-linear
path that has been mended: each pins a deterministic count where one
exists, and a wall-time budget with at least ten times headroom."""

import time
from random import Random

from horders import matrices, scalars
from horders.involutions import InvolutionSpec, wellformed
from horders.matrices import JetMatrix
from horders.orders import BlockOrder, DivisionSpec, Signature
from horders.scalars import QUATERNION, LaurentJet, Scalar


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
        u = JetMatrix.of([[LaurentJet(QUATERNION, 0, [_quaternion(rng), _quaternion(rng)])
                           for _ in range(n)] for _ in range(n)])
        blocks.append(u.conj_transpose() @ middle @ u)
    a = JetMatrix.dsum(*blocks)
    assert all(a._leading_unit(comp) is None for comp in a._components())
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
    rng, n = Random(6), 6
    u = JetMatrix.of([[LaurentJet(QUATERNION, 0, [_quaternion(rng), _quaternion(rng)])
                       for _ in range(n)] for _ in range(n)])
    a = JetMatrix.dsum(u.conj_transpose() @ u, JetMatrix.diagonal([LaurentJet.zero(QUATERNION)]))
    spec = InvolutionSpec(BlockOrder(DivisionSpec("H", QUATERNION, 2, 1), Signature((a.n,))), a)
    sizes = _spy_eliminations(monkeypatch)
    start = time.perf_counter()
    diagnostics = wellformed(spec)
    assert time.perf_counter() - start < 1
    assert (diagnostics.code, diagnostics.detail) == (
        "NotInvertible", "gauge is not invertible over the Laurent field")
    assert sizes == []
