"""Scalar tower and Laurent jet arithmetic."""

import math
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
    SizeMismatch,
)
from horders.scalars import (
    BASE,
    DEFAULT_PRECISION,
    QUATERNION,
    LaurentJet,
    Scalar,
    quadratic,
    smat_invertible,
)

from helpers import (
    kfold_power,
    random_jet,
    random_scalar,
    ref_conj,
    ref_invertible,
    ref_inverse,
    ref_mul,
    ref_norm,
    ref_str,
)

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


def test_a_scalar_has_exactly_dim_coordinates():
    with pytest.raises(SizeMismatch):
        Scalar.of(BASE, 1, 2)
    with pytest.raises(SizeMismatch):
        Scalar(QUATERNION, (1,))
    assert Scalar.of(QUATERNION, 1) == Scalar(QUATERNION, (1, 0, 0, 0)) == Scalar.one(QUATERNION)


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
# Integer coordinates against the Fraction-coordinate reference

SPLIT_KINDS = [QUAD.extended(-1), QUATERNION.extended(-1)]
REF_KINDS = KINDS + [BASE.extended(2), quadratic(-3).extended(2), QUATERNION.extended(3)] + SPLIT_KINDS


def fraction_parts(kind, rng):
    return tuple(Q(rng.randint(-4, 4), rng.randint(1, 6)) if rng.random() < 0.8 else Q(0)
                 for _ in range(kind.dim))


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_arithmetic_matches_the_fraction_reference(kind):
    rng = Random(23)
    for _ in range(60):
        a, b = fraction_parts(kind, rng), fraction_parts(kind, rng)
        q = Q(rng.randint(-5, 5), rng.randint(1, 4))
        x, y = Scalar(kind, a), Scalar(kind, b)
        assert x.parts == a
        assert (x + y).parts == tuple(u + v for u, v in zip(a, b))
        assert (x - y).parts == tuple(u - v for u, v in zip(a, b))
        assert (-x).parts == tuple(-u for u in a)
        assert (x * y).parts == ref_mul(kind, a, b)
        assert x.times(q).parts == tuple(q * u for u in a)
        assert x.times(q.numerator).parts == tuple(q.numerator * u for u in a)
        assert x.conj().parts == ref_conj(kind, a)
        assert str(x) == ref_str(kind, a)
        if kind.ext is None:
            assert x.norm() == ref_norm(kind, a)
        want = ref_inverse(kind, a)
        if want is None:
            with pytest.raises(NotInvertible):
                x.inverse()
        else:
            assert x.inverse().parts == want


@pytest.mark.parametrize("kind", SPLIT_KINDS, ids=str)
def test_split_kinds_keep_their_zero_divisors(kind):
    # i + sqrt(-1) squares to 2*i*sqrt(-1) and (i + sqrt(-1)) * (i - sqrt(-1)) = 0
    rng = Random(29)
    root = Scalar.ext_gen(kind) + Scalar.basis(kind, 1)
    for _ in range(20):
        x = root * Scalar(kind, fraction_parts(kind, rng))
        assert ref_inverse(kind, x.parts) is None
        with pytest.raises(NotInvertible):
            x.inverse()


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_scalars_are_stored_in_lowest_terms(kind):
    a, b = Scalar.of(kind, Q(2, 4)), Scalar.of(kind, Q(1, 2))
    assert a == b and hash(a) == hash(b)
    assert (a.num[0], a.den) == (1, 2)
    for x in (Scalar.of(kind, Q(1, 3)).times(Q(-3, 4)), Scalar.of(kind, Q(1, 6)).times(-2),
              Scalar.of(kind, Q(-5, 6)).inverse()):
        assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert Scalar.of(kind, Q(1, 3)).times(Q(-3, 4)) == Scalar.of(kind, Q(-1, 4))
    zero = b - a
    assert zero.num == (0,) * kind.dim and zero.den == 1 and zero == Scalar.zero(kind)


@pytest.mark.parametrize("kind", [BASE, QUAD, QUATERNION] + SPLIT_KINDS, ids=str)
def test_smat_invertible_matches_the_reference(kind):
    rng = Random(31)
    seen = set()
    for trial in range(24):
        n = 1 + trial % 3
        rows = [[fraction_parts(kind, rng) for _ in range(n)] for _ in range(n)]
        if trial % 4 == 1 and n > 1:
            # a left multiple of the first row: singular
            c = fraction_parts(kind, rng)
            rows[-1] = [ref_mul(kind, c, s) for s in rows[0]]
        elif trial % 4 == 2:
            rows[0] = [(Q(0),) * kind.dim] * n
        want = ref_invertible(kind, rows)
        assert smat_invertible(tuple(tuple(Scalar(kind, s) for s in row) for row in rows)) == want
        seen.add(want)
    assert seen == {True, False}


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


def test_explicit_inverse_precision_is_capped_by_what_the_jet_knows():
    x = jet(BASE, 0, [1, 1], 3)         # 1 + t known mod t^3
    y = jet(BASE, 0, [1, 1, 0, 5])      # the exact 1 + t + 5t^3, which x agrees with
    assert x.agrees(y)
    assert x.inverse(10).precision == 3
    assert x.inverse(10).agrees(y.inverse(10))


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


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_monomial_powers_equal_repeated_products(kind):
    rng = Random(37)
    for _ in range(4):
        c = Scalar(kind, fraction_parts(kind, rng))
        if c.is_zero():
            continue
        m = LaurentJet.t_power(kind, rng.randint(-2, 2), c)
        for k in range(-3, 6):
            try:
                want = kfold_power(m, k)
            except NotInvertible:
                with pytest.raises(NotInvertible):
                    m ** k
                continue
            assert m ** k == want


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_jet_powers_equal_the_kfold_product(kind):
    rng = Random(41)
    for _ in range(30):
        x = random_jet(kind, rng, precision=rng.choice([None, None, 2, 5]))
        k = rng.randint(-5, 9)
        try:
            want = kfold_power(x, k)
        except (NotInvertible, IndeterminateValuation, InsufficientPrecision) as exc:
            with pytest.raises(type(exc)):
                x ** k
            continue
        assert x ** k == want


def test_huge_negative_power_takes_logarithmically_many_products(monkeypatch):
    k = 99999999
    cap = DEFAULT_PRECISION + 2 * k.bit_length()  # the inverse, then square-and-multiply
    mul, calls = LaurentJet.__mul__, []

    def counted(a, b):
        calls.append(1)
        if len(calls) > cap:
            raise AssertionError(f"more than {cap} jet products")
        return mul(a, b)

    monkeypatch.setattr(LaurentJet, "__mul__", counted)
    power = jet(BASE, 0, [1, 1]) ** -k
    # (1 + t)^-k = sum over j of (-1)^j * C(k + j - 1, j) * t^j
    assert power == jet(BASE, 0, [(-1) ** j * math.comb(k + j - 1, j)
                                  for j in range(DEFAULT_PRECISION)], DEFAULT_PRECISION)


def test_huge_monomial_powers_are_direct():
    t = LaurentJet.t_power(BASE, 1)
    assert t ** 99999999 == LaurentJet.t_power(BASE, 99999999)
    assert t ** -99999999 == LaurentJet.t_power(BASE, -99999999)
    qi = LaurentJet.t_power(QUATERNION, 3, Scalar.basis(QUATERNION, 1))
    assert qi ** 99999999 == LaurentJet.t_power(QUATERNION, 299999997, -Scalar.basis(QUATERNION, 1))
