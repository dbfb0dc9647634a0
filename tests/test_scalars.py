"""Scalar tower and Laurent jet arithmetic."""

from fractions import Fraction as Q
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from horders.errors import (
    IndeterminateValuation,
    InsufficientPrecision,
    NegativeValuation,
    NotInvertible,
    ScalarKindMismatch,
)
from horders.scalars import (
    BASE,
    QUATERNION,
    LaurentJet,
    Scalar,
    quadratic,
    random_scalar,
)

from helpers import random_jet

QUAD = quadratic(-1)
KINDS = [BASE, QUAD, quadratic(-3), QUATERNION]


def jet(kind, lowest, coeffs, precision=None):
    return LaurentJet.from_coeffs(kind, lowest, coeffs, precision)


# ---------------------------------------------------------------------------
# Scalars


def test_rational_storage_is_canonical():
    s = Scalar.rational(BASE, Q(2, 4))
    assert s.parts == (Q(1, 2),)


def test_quaternion_multiplication_table():
    qi, qj, qk = (Scalar.basis(QUATERNION, i) for i in (1, 2, 3))
    one = Scalar.one(QUATERNION)
    assert qi * qj == qk
    assert qj * qi == -qk
    assert qi * qi == -one
    assert qj * qj == -one
    assert qk * qk == -one
    assert qj * qk == qi and qk * qi == qj


def test_quadratic_multiplication():
    r = Scalar.sqrt_gen(QUAD)
    assert r * r == Scalar.rational(QUAD, -1)
    z = Scalar.of(QUAD, 1, 2)  # 1 + 2i
    w = Scalar.of(QUAD, 3, -1)
    assert z * w == Scalar.of(QUAD, 5, 5)


@pytest.mark.parametrize("kind", KINDS)
def test_conj_is_an_involution_and_antimultiplicative(kind):
    rng = Random(7)
    for _ in range(100):
        x = random_scalar(kind, rng)
        y = random_scalar(kind, rng)
        assert x.conj().conj() == x
        assert (x * y).conj() == y.conj() * x.conj()


@pytest.mark.parametrize("kind", KINDS)
def test_norm_positive_on_1000_random_nonzero_scalars(kind):
    rng = Random(11)
    for _ in range(1000):
        x = random_scalar(kind, rng, nonzero=True)
        n = x.norm()
        assert n > 0
        assert x * x.conj() == Scalar.rational(kind, n)


@pytest.mark.parametrize("kind", KINDS)
def test_scalar_inverse(kind):
    rng = Random(13)
    for _ in range(50):
        x = random_scalar(kind, rng, nonzero=True)
        assert x * x.inverse() == Scalar.one(kind)
        assert x.inverse() * x == Scalar.one(kind)
    with pytest.raises(NotInvertible):
        Scalar.zero(kind).inverse()


def test_kind_mismatch_raises():
    with pytest.raises(ScalarKindMismatch):
        Scalar.one(BASE) + Scalar.one(QUATERNION)
    with pytest.raises(ScalarKindMismatch):
        LaurentJet.one(BASE) * LaurentJet.one(QUAD)


def test_extension_adjoins_a_central_conj_fixed_root():
    ext = QUATERNION.extended(-1)
    zeta = Scalar.ext_gen(ext)
    assert zeta * zeta == Scalar.rational(ext, -1)
    assert zeta.conj() == zeta
    qi = Scalar.basis(QUATERNION, 1).extended(-1)
    assert zeta * qi == qi * zeta  # central


def test_extension_can_have_zero_divisors():
    ext = QUATERNION.extended(-1)
    zeta = Scalar.ext_gen(ext)
    qi = Scalar.basis(QUATERNION, 1).extended(-1)
    one = Scalar.one(ext)
    a = one + zeta * qi
    b = one - zeta * qi
    assert (a * b).is_zero()
    with pytest.raises(NotInvertible):
        a.inverse()


def test_extended_inverse_through_regular_representation():
    ext = quadratic(-1).extended(-3)
    rng = Random(5)
    done = 0
    while done < 25:
        x = random_scalar(ext, rng, nonzero=True)
        try:
            inv = x.inverse()
        except NotInvertible:
            continue
        assert x * inv == Scalar.one(ext)
        done += 1


# ---------------------------------------------------------------------------
# Jets


def test_jet_addition_cancels():
    a = jet(BASE, 1, [1, 1], 5)   # t + t^2
    b = jet(BASE, 1, [-1], 4)     # -t
    out = a + b
    assert out == jet(BASE, 2, [1], 4)
    assert out.precision == 4


def test_jet_addition_identity():
    x = jet(BASE, -1, [2, 0, 3], 7)
    assert LaurentJet.zero(BASE) + x == x


def test_jet_addition_at_high_exponent():
    a = jet(BASE, 0, [1] + [0] * 14 + [1], 16)  # 1 + t^15 known mod t^16
    b = LaurentJet.one(BASE)
    out = a + b
    assert out == jet(BASE, 0, [2] + [0] * 14 + [1], 16)


def test_jet_multiplication():
    t = LaurentJet.t_power(BASE, 1)
    one = LaurentJet.one(BASE)
    assert t * t == LaurentJet.t_power(BASE, 2)
    assert (one + t) * (one - t) == jet(BASE, 0, [1, 0, -1])


def test_jet_multiplication_noncommutative_scalars():
    qi = LaurentJet.constant(QUATERNION, Scalar.basis(QUATERNION, 1))
    qj = LaurentJet.constant(QUATERNION, Scalar.basis(QUATERNION, 2))
    qk = LaurentJet.constant(QUATERNION, Scalar.basis(QUATERNION, 3))
    assert qi * qj == qk
    assert qj * qi == -qk


def test_jet_product_precision_contract():
    a = jet(BASE, 1, [1], 5)    # t known mod t^5
    b = jet(BASE, 2, [3], 9)    # 3t^2 known mod t^9
    assert (a * b).precision == min(1 + 9, 2 + 5)


def test_jet_inverse_geometric_series():
    one_plus_t = jet(BASE, 0, [1, 1], 3)
    assert one_plus_t.inverse() == jet(BASE, 0, [1, -1, 1], 3)


def test_jet_inverse_monomial_is_exact():
    t = LaurentJet.t_power(BASE, 1)
    inv = t.inverse()
    assert inv == LaurentJet.t_power(BASE, -1)
    assert inv.is_exact


def test_jet_inverse_quaternion():
    qi = Scalar.basis(QUATERNION, 1)
    a = jet(QUATERNION, 0, [Scalar.one(QUATERNION), qi], 3)  # 1 + qi*t
    inv = a.inverse()
    assert inv == jet(QUATERNION, 0, [Scalar.one(QUATERNION), -qi, Scalar.rational(QUATERNION, -1)], 3)
    product = a * inv
    assert product.agrees(LaurentJet.one(QUATERNION))


@pytest.mark.parametrize("kind", KINDS)
def test_jet_inverse_round_trip(kind):
    rng = Random(23)
    for _ in range(100):
        a = random_jet(kind, rng, precision=9)
        if a.is_zero():
            continue
        assert (a * a.inverse()).agrees(LaurentJet.one(kind))


def test_valuation_multiplicative_on_1000_random_jets():
    rng = Random(29)
    checked = 0
    while checked < 1000:
        kind = KINDS[rng.randrange(len(KINDS))]
        a = random_jet(kind, rng)
        b = random_jet(kind, rng)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).valuation() == a.valuation() + b.valuation()
        checked += 1


def test_residue():
    assert jet(BASE, 0, [2, 3]).residue() == Scalar.rational(BASE, 2)
    assert LaurentJet.t_power(BASE, 1).residue() == Scalar.zero(BASE)
    with pytest.raises(NegativeValuation):
        LaurentJet.t_power(BASE, -1).residue()
    with pytest.raises(IndeterminateValuation):
        LaurentJet.zero(BASE, precision=4).residue()


def test_zero_to_precision_valuation_is_flagged():
    z = LaurentJet.zero(BASE, precision=5)
    assert z.is_zero() and not z.is_exact
    with pytest.raises(IndeterminateValuation):
        z.valuation()
    assert z.valuation_floor() == 5


def test_comparison_needs_the_precision_floor():
    a = jet(BASE, -3, [1], 0)
    b = jet(BASE, -3, [1], 0)
    with pytest.raises(InsufficientPrecision):
        a.agrees(b)


def test_coeff_beyond_precision_is_refused():
    a = jet(BASE, 0, [1], 2)
    assert a.coeff(1) == Scalar.zero(BASE)
    with pytest.raises(InsufficientPrecision):
        a.coeff(2)


def test_exact_zero_times_anything_is_exact_zero():
    z = LaurentJet.zero(BASE)
    t = LaurentJet.t_power(BASE, 1)
    assert (z * t).is_zero() and (z * t).is_exact


def test_shift_and_power():
    t = LaurentJet.t_power(BASE, 1)
    assert t ** 3 == LaurentJet.t_power(BASE, 3)
    assert t ** -2 == LaurentJet.t_power(BASE, -2)
    assert jet(BASE, 0, [5]).shift(2) == LaurentJet.t_power(BASE, 2, 5)


@settings(deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.integers(-2, 2), st.integers(-2, 2))
def test_exact_jet_product_matches_polynomial_convolution(xs, ys, ex, ey):
    a = jet(BASE, ex, xs)
    b = jet(BASE, ey, ys)
    conv = {}
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            e = ex + i + ey + j
            conv[e] = conv.get(e, 0) + x * y
    lo = min(conv) if conv else 0
    expected = jet(BASE, lo, [conv.get(e, 0) for e in range(lo, max(conv) + 1)]) if conv else LaurentJet.zero(BASE)
    assert a * b == expected
