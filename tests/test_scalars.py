"""Scalar tower and Laurent jet arithmetic."""

import math
from fractions import Fraction as Q
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from horders.errors import (
    IndeterminateValuation,
    InsufficientPrecision,
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
    ScalarKind,
    _components,
    _jet_of,
    _rows_of,
    _sum,
    _times,
    default_precision,
    left_regular,
    quadratic,
    smat_invertible,
)

from helpers import (
    jets_agree,
    kfold_power,
    random_jet,
    random_scalar,
    ref_conj,
    ref_geometric_inverse,
    ref_invertible,
    ref_inverse,
    ref_jet_add,
    ref_jet_mul,
    ref_left_regular,
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


def test_the_default_precision_is_sixteen():
    assert default_precision() == DEFAULT_PRECISION == 16


def test_rational_storage_is_canonical():
    s = Scalar.of(BASE, Q(2, 4))
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
    r = Scalar.basis(QUAD, 1)
    assert r * r == Scalar.of(QUAD, -1)
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
        n = x * x.conj()
        assert n.is_rational() and n.rational_value() > 0


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


@pytest.mark.parametrize("make", [
    lambda: Scalar.of(BASE, 0.1),
    lambda: Scalar(QUAD, (1, 0.5)),
    lambda: Scalar.of(QUATERNION, 2.0),
    lambda: Scalar.one(BASE).times(0.5),
    lambda: LaurentJet.constant(BASE, 0.1),
    lambda: LaurentJet.t_power(BASE, 1, 0.5),
    lambda: LaurentJet.from_coeffs(BASE, 0, [1, 0.25]),
    lambda: LaurentJet.t_power(BASE, 1.5),
    lambda: LaurentJet(BASE, 0.5, (Scalar.one(BASE),)),
    lambda: LaurentJet.zero(BASE, 2.0),
    lambda: LaurentJet.from_coeffs(BASE, 0, [1, 2], 1.5),
], ids=["of", "init", "rational", "times", "constant", "t_power", "from_coeffs",
        "exponent", "lowest_exp", "zero_precision", "precision"])
def test_float_input_is_refused(make):
    # Scalar.of(BASE, 0.1) used to store 3602879701896397/36028797018963968;
    # t_power(BASE, 1.5) printed as t^1.5, the matrix [[t^0.5]] read as
    # invertible over the Laurent field, and a float precision failed in a
    # slice, with no word of the float
    with pytest.raises(TypeError, match="float"):
        make()


@pytest.mark.parametrize("call, error, message", [
    (lambda: quadratic(-4), ValueError, "quadratic kind needs a negative square-free d"),
    (lambda: ScalarKind("octonion"), ValueError, "unknown scalar core 'octonion'"),
    (lambda: ScalarKind("base", -1), ValueError, "only quadratic kinds carry d"),
    *[(lambda d=d: BASE.extended(d), ValueError,
       "extension discriminant must be square-free and not a square") for d in (0, 1, 4, -8)],
    (lambda: BASE.extended(-1).extended(2), ValueError, "kind is already extended"),
    (lambda: Scalar.ext_gen(QUAD), ScalarKindMismatch, "quadratic(-1) is not extended"),
    (lambda: Scalar.basis(QUAD, 1).rational_value(), ValueError,
     "scalar sqrt(-1) is not rational"),
    (lambda: LaurentJet(BASE, 0, [Scalar.one(QUAD)]), ScalarKindMismatch,
     "coefficient kind quadratic(-1) in a base jet"),
    (lambda: LaurentJet.zero(BASE, 3).degree(), IndeterminateValuation, "zero jet has no degree"),
])
def test_scalar_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("make", [quadratic, BASE.extended, QUATERNION.extended],
                         ids=["quadratic", "base.extended", "quaternion.extended"])
@pytest.mark.parametrize("d", [-2147483659, -2 ** 31, -10 ** 40])
def test_a_discriminant_of_2_to_the_31_or_more_is_refused(make, d):
    # square-freeness is decided by trial division up to sqrt|d|, so the
    # size of d is bounded before that division starts
    with pytest.raises(ValueError) as err:
        make(d)
    assert str(err.value) == "a discriminant must be less than 2^31 in absolute value"


def test_a_discriminant_just_below_the_bound_is_decided():
    # 2^31 - 1 is prime
    assert quadratic(-(2 ** 31 - 1)).d == -(2 ** 31 - 1)
    assert BASE.extended(2 ** 31 - 1).ext == 2 ** 31 - 1


def test_extension_adjoins_a_central_conj_fixed_root():
    ext = QUATERNION.extended(-1)
    zeta = Scalar.ext_gen(ext)
    assert zeta * zeta == Scalar.of(ext, -1)
    assert zeta.conj() == zeta
    qi = Scalar.basis(QUATERNION, 1).onto(ext)
    assert zeta * qi == qi * zeta  # central


def test_extension_can_have_zero_divisors():
    ext = QUATERNION.extended(-1)
    zeta = Scalar.ext_gen(ext)
    qi = Scalar.basis(QUATERNION, 1).onto(ext)
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
            assert (x * x.conj()).rational_value() == ref_norm(kind, a)
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
def test_inverse_names_a_zero_or_a_zero_divisor(kind):
    with pytest.raises(NotInvertible) as err:
        Scalar.zero(kind).inverse()
    want = "zero scalar" if kind.ext is None else "scalar 0 is a zero divisor or zero"
    assert str(err.value) == want
    if kind in SPLIT_KINDS:
        root = Scalar.ext_gen(kind) + Scalar.basis(kind, 1)
        with pytest.raises(NotInvertible) as err:
            root.inverse()
        assert str(err.value) == f"scalar {root} is a zero divisor or zero"


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_left_regular_matches_the_reference(kind):
    rng = Random(41)
    for trial in range(12):
        n = 1 + trial % 3
        rows = [[None if rng.random() < 0.3 else tuple(rng.randint(-4, 4) for _ in range(kind.dim))
                 for _ in range(n)] for _ in range(n)]
        ref = ref_left_regular(kind, [[tuple(map(Q, x or (0,) * kind.dim)) for x in row]
                                      for row in rows])
        assert left_regular(kind, rows) == ref


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
    assert smat_invertible(())  # the empty matrix is the unit of M_0
    one, zero = Scalar.one(kind), Scalar.zero(kind)
    # rows of another length than their count: once True, or an IndexError
    for rows in ([[one, one]], [[one, zero, zero]], [[one], [zero, one]], [[one], [one]]):
        with pytest.raises(SizeMismatch, match="^matrix must be square$"):
            smat_invertible(rows)
    if kind not in SPLIT_KINDS:
        return
    # Block-diagonal after a permutation that scatters each block: a unit
    # with a zero diagonal, a random 1 x 1 block (zero divisors included)
    # and, on even trials, a singular block whose diagonal entries are
    # units, so a wrong split of the components changes the verdict.
    seen = set()
    for trial in range(12):
        q = [Q(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in range(5)]
        zero, *r = [(x,) + (Q(0),) * (kind.dim - 1) for x in [Q(0)] + q]
        last = ([[r[2], r[3]], [ref_mul(kind, r[4], r[2]), ref_mul(kind, r[4], r[3])]]
                if trial % 2 == 0 else [[zero, r[3]], [r[4], zero]])
        blocks = [[[zero, r[0]], [r[1], zero]], [[fraction_parts(kind, rng)]], last]
        place = (0, 3, 1, 4, 2) if trial % 3 == 0 else rng.sample(range(5), 5)
        rows = [[zero] * 5 for _ in range(5)]
        off = 0
        for block in blocks:
            for i, row in enumerate(block):
                for j, x in enumerate(row):
                    rows[place[off + i]][place[off + j]] = x
            off += len(block)
        want = ref_invertible(kind, rows)
        assert smat_invertible(tuple(tuple(Scalar(kind, s) for s in row) for row in rows)) == want
        seen.add(want)
    assert seen == {True, False}


def test_components_match_a_graph_search():
    rng = Random(37)
    for trial in range(300):
        n = trial % 8
        density = rng.choice([0.05, 0.15, 0.3, 0.6, 1.0])
        pattern = [[i == j or rng.random() < density for j in range(n)] for i in range(n)]
        want, seen = [], set()
        for start in range(n):
            if start not in seen:
                comp, todo = set(), [start]
                while todo:
                    i = todo.pop()
                    if i not in comp:
                        comp.add(i)
                        todo.extend(j for j in range(n) if pattern[i][j] or pattern[j][i])
                seen |= comp
                want.append(sorted(comp))
        assert _components(n, lambda i, j: pattern[i][j] or pattern[j][i]) == want


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_basis_products_match_the_unit_vector_products(kind):
    unit = [tuple(Q(int(i == a)) for i in range(kind.dim)) for a in range(kind.dim)]
    assert kind.basis_products == tuple(
        tuple((c, r, k) for c in range(kind.dim)
              for r, k in enumerate(ref_mul(kind, unit[a], unit[c])) if k)
        for a in range(kind.dim))


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


def kernel_jet(kind, rng):
    """An exact, truncated, zero-to-precision or exactly zero jet, from
    exponent -4 up, with coefficients over differing denominators."""
    shape = rng.choice(("exact", "exact", "truncated", "truncated", "zero", "exact zero"))
    if shape == "zero":
        return LaurentJet.zero(kind, rng.randint(-3, 5))
    if shape == "exact zero":
        return LaurentJet.zero(kind)
    lo = rng.randint(-4, 3)
    coeffs = [Scalar(kind, fraction_parts(kind, rng)) for _ in range(rng.randint(1, 5))]
    return LaurentJet(kind, lo, coeffs, None if shape == "exact" else lo + rng.randint(0, 6))


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_jet_kernel_matches_the_per_scalar_reference(kind):
    # jet equality compares the coefficient window and the precision
    rng = Random(31)
    for _ in range(80):
        x, y = kernel_jet(kind, rng), kernel_jet(kind, rng)
        assert x * y == ref_jet_mul(x, y)
        assert x + y == ref_jet_add(x, y)
        assert x - y == ref_jet_add(x, -y)


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_an_accumulated_jet_is_the_jet_the_constructor_builds(kind):
    # the reference sums reduced Scalars per exponent and lets the public
    # constructor check kinds, strip zero ends and truncate
    rng = Random(47)
    zero = Scalar.zero(kind)
    for trial in range(60):
        values, sums = [], {}

        def added(e, c):
            sums[e] = sums.get(e, zero) + c

        for _ in range(rng.randint(0, 3)):
            x, y = kernel_jet(kind, rng), kernel_jet(kind, rng)
            values.append(_times(kind, _rows_of(x), _rows_of(y)))
            for i, a in enumerate(x.coeffs, x.lowest_exp):
                for j, b in enumerate(y.coeffs, y.lowest_exp):
                    added(i + j, a * b)
        # terms that cancel below and above everything else, or alone (an
        # exact zero), read first over the scales 6 and 10: neither divides
        # the other, so the sum rescales the rows it has read
        lo, hi = min(sums, default=0) - rng.randint(1, 3), max(sums, default=0) + rng.randint(1, 3)
        for e in (lo, hi) if trial % 5 else (lo,):
            v = [rng.randint(-4, 4) for _ in range(kind.dim)]
            v[0] = v[0] or 1
            values[:0] = [({e: tuple(3 * x for x in v)}, 6, True),
                          ({e: tuple(-5 * x for x in v)}, 10, True)]
            c = Scalar(kind, [Q(x, 2) for x in v])
            added(e, c)
            added(e, -c)
        precision = rng.choice((None, None, rng.randint(lo - 1, hi + 1)))
        if not sums:
            ref = LaurentJet(kind, 0, (), precision)
        else:
            first = min(sums)
            ref = LaurentJet(kind, first, [sums.get(e, zero) for e in range(first, max(sums) + 1)],
                             precision)
        got = _jet_of(kind, _sum(values), precision)
        assert got == ref
        assert type(got.coeffs) is tuple and all(c.kind is kind for c in got.coeffs)


def test_jet_sums_reduce_over_the_lcm_of_the_denominators():
    x = jet(BASE, -1, [Q(1, 6), Q(1, 4)])
    y = jet(BASE, -1, [Q(1, 10), Q(-1, 4), Q(2, 3)], 3)
    assert _rows_of(x) == ({-1: (2,), 0: (3,)}, 12, False)
    assert _rows_of(y) == ({-1: (6,), 0: (-15,), 1: (40,)}, 60, False)
    # one denominator: each row is its coefficient's own numerators, not rescaled
    same = jet(QUAD, 2, [Scalar(QUAD, (Q(1, 6), Q(5, 6))), 0, Scalar(QUAD, (Q(-7, 6), 0))])
    assert all(row is c.num for row, c in zip(_rows_of(same)[0].values(), same.coeffs[::2]))
    assert _sum([({0: (1,)}, 6, True), ({0: (1,), 1: (3,)}, 10, False)]) == (
        {0: (8,), 1: (9,)}, 30, False)
    assert x + y == jet(BASE, -1, [Q(4, 15), 0, Q(2, 3)], 3)
    assert x * y == jet(BASE, -2, [Q(1, 60), Q(-1, 60), Q(7, 144), Q(1, 6)], 2)


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
    assert jets_agree(x, y)
    assert x.inverse(10).precision == 3
    assert jets_agree(x.inverse(10), y.inverse(10))


def test_jet_inverse_monomial_is_exact():
    t = LaurentJet.t_power(BASE, 1)
    inv = t.inverse()
    assert inv == LaurentJet.t_power(BASE, -1)
    assert inv.is_exact


def test_jet_inverse_quaternion():
    qi = Scalar.basis(QUATERNION, 1)
    a = jet(QUATERNION, 0, [Scalar.one(QUATERNION), qi], 3)  # 1 + qi*t
    inv = a.inverse()
    assert inv == jet(QUATERNION, 0, [Scalar.one(QUATERNION), -qi, Scalar.of(QUATERNION, -1)], 3)
    product = a * inv
    assert jets_agree(product, LaurentJet.one(QUATERNION))


@pytest.mark.parametrize("kind", KINDS)
def test_jet_inverse_round_trip(kind):
    rng = Random(23)
    for _ in range(100):
        a = random_jet(kind, rng, precision=9)
        if a.is_zero():
            continue
        assert jets_agree(a * a.inverse(), LaurentJet.one(kind))


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_jet_inverse_matches_the_geometric_series_reference(kind):
    # the same coefficients exact and truncated at two precisions, inverted
    # at the default precision and at explicit ones below and above the
    # most the jet determines (P - 2v; DEFAULT_PRECISION - v when exact)
    rng = Random(43)
    for _ in range(12):
        lo = rng.randint(-3, 3)
        coeffs = [Scalar(kind, fraction_parts(kind, rng)) for _ in range(rng.randint(1, 5))]
        if kind in SPLIT_KINDS and rng.random() < 0.3:
            coeffs[0] = Scalar.ext_gen(kind) + Scalar.basis(kind, 1)  # a zero divisor
        for prec in (None, lo + 2, lo + 7):
            x = LaurentJet(kind, lo, coeffs, prec)
            known = DEFAULT_PRECISION - x.lowest_exp if prec is None else prec - 2 * x.lowest_exp
            for precision in (None, known - 3, known + 4):
                try:
                    want = ref_geometric_inverse(x, precision)
                except (NotInvertible, IndeterminateValuation, InsufficientPrecision) as exc:
                    with pytest.raises(type(exc)):
                        x.inverse(precision)
                    continue
                assert x.inverse(precision) == want


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


def test_zero_to_precision_valuation_is_flagged():
    z = LaurentJet.zero(BASE, precision=5)
    assert z.is_zero() and not z.is_exact
    with pytest.raises(IndeterminateValuation):
        z.valuation()
    assert z.valuation_floor() == 5


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
    assert jet(BASE, 0, [5]) * t ** 2 == LaurentJet.t_power(BASE, 2, 5)


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
