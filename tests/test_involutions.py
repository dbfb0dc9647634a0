"""Twisted involutions, residue blocks, isotropy and distinguishing."""

from random import Random

import pytest

from horders.errors import (
    InsufficientPrecision,
    NotEpsilonHermitian,
    SingularForm,
    UnsupportedFormKind,
    UnsupportedGaugeShape,
)
from horders.involutions import (
    ANISOTROPIC,
    INCONCLUSIVE,
    ISOTROPIC,
    InvolutionSpec,
    anisotropy,
    apply_sigma,
    apply_tau,
    diagonalize_form,
    distinguish,
    residually_anisotropic,
    residue_involution,
    smat_conj_transpose,
    smat_identity,
    smat_is_zero,
    smat_mul,
    wellformed,
)
from horders.matrices import JetMatrix
from horders.orders import (
    BlockOrder,
    DivisionSpec,
    Signature,
    contains,
)
from horders.scalars import (
    BASE,
    QUATERNION,
    LaurentJet,
    Scalar,
    default_precision,
    quadratic,
    set_default_precision,
)
from horders.witness import counterexample_pair

from helpers import random_scalar, sample_block_unit, sample_element, wellformed_by_products

QUAD = quadratic(-1)


def order(*parts, kind=BASE, label="D", s=1, t=1):
    return BlockOrder(DivisionSpec(label, kind, s, t), Signature(parts))


def diag(kind, *entries):
    jets = []
    for e in entries:
        if e == "t":
            jets.append(LaurentJet.t_power(kind, 1))
        elif e == "-t":
            jets.append(LaurentJet.t_power(kind, 1, -1))
        elif isinstance(e, Scalar):
            jets.append(LaurentJet.constant(kind, e))
        else:
            jets.append(LaurentJet.constant(kind, e))
    return JetMatrix.diagonal(jets)


def smat(kind, rows):
    return tuple(tuple(Scalar.rational(kind, v) if not isinstance(v, Scalar) else v
                       for v in row) for row in rows)


# ---------------------------------------------------------------------------
# tau and sigma


def test_tau_fixes_real_diagonal_matrices():
    m = diag(BASE, 1, -2, 3)
    assert apply_tau(m) == m


def test_tau_conjugates_and_transposes():
    kind = QUATERNION
    qi = Scalar.basis(kind, 1)
    z = LaurentJet.zero(kind)
    m = JetMatrix.of([[z, LaurentJet.constant(kind, qi)], [z, z]])
    out = apply_tau(m)
    assert out.entry(0, 1).is_zero()
    assert out.entry(1, 0) == LaurentJet.constant(kind, -qi)


def test_tau_is_an_involution_on_random_matrices():
    rng = Random(41)
    a = order(2, 1, kind=QUATERNION)
    for _ in range(100):
        x = sample_element(a, rng)
        assert apply_tau(apply_tau(x)) == x


def test_sigma_with_identity_gauge_is_tau():
    a = order(2, 1)
    spec = InvolutionSpec(a, JetMatrix.identity(BASE, 3))
    rng = Random(43)
    x = sample_element(a, rng)
    assert apply_sigma(spec, x) == apply_tau(x)


def test_sigma_on_the_bundled_gauge_stays_in_the_order():
    spec1, spec2, _, _ = counterexample_pair()
    kind = spec2.order.division.kind
    g = JetMatrix.unit(kind, 6, 4, 5, LaurentJet.t_power(kind, 1))  # t*e[5,6]
    image = apply_sigma(spec2, g)
    assert contains(spec2.order, image)
    # direct evaluation: a2^-1 tau(t e[5,6]) a2 = -t e[6,5]
    expected = JetMatrix.unit(kind, 6, 5, 4, LaurentJet.t_power(kind, 1, -1))
    assert image == expected


def test_sigma_uses_the_current_precision():
    # a gauge inverse computed at one working precision must not be
    # reused after the precision changes
    a = order(2)
    gauge = JetMatrix.diagonal([LaurentJet.from_coeffs(BASE, 0, [1, 1]), LaurentJet.one(BASE)])
    spec = InvolutionSpec(a, gauge)
    try:
        assert wellformed(spec).ok
        set_default_precision(64)
        image = apply_sigma(spec, JetMatrix.identity(BASE, 2))
        assert image.entry(0, 0).precision == 64
    finally:
        set_default_precision(16)


def test_gauge_inverse_at_low_precision_is_insufficient_precision():
    # at precision 3 the third pivot cancels to a jet known only to be
    # zero modulo a power of t: missing precision, not a singular gauge
    t = LaurentJet.t_power
    z = LaurentJet.zero(BASE)
    gauge = JetMatrix.of([
        [t(BASE, 2, -2), z, z],
        [z, LaurentJet.from_coeffs(BASE, -1, [2, 0, 0, 1]), t(BASE, -1, -2)],
        [z, t(BASE, -1, -2), t(BASE, -1, 2)],
    ])
    try:
        set_default_precision(3)
        with pytest.raises(InsufficientPrecision):
            gauge.inverse()
    finally:
        set_default_precision(16)
    assert (gauge @ gauge.inverse()).agrees(JetMatrix.identity(BASE, 3))


def test_sigma_squares_to_identity():
    rng = Random(47)
    spec1, spec2, _, _ = counterexample_pair()
    for spec in (spec1, spec2):
        for _ in range(20):
            x = sample_element(spec.order, rng)
            assert apply_sigma(spec, apply_sigma(spec, x)) == x


def test_sigma_is_an_antiautomorphism():
    rng = Random(53)
    spec1, _, _, _ = counterexample_pair(QUATERNION, 2, 1)
    for _ in range(20):
        x = sample_element(spec1.order, rng)
        y = sample_element(spec1.order, rng)
        assert apply_sigma(spec1, x @ y) == apply_sigma(spec1, y) @ apply_sigma(spec1, x)


# ---------------------------------------------------------------------------
# wellformed


def test_bundled_gauges_are_wellformed():
    spec1, spec2, _, _ = counterexample_pair()
    assert wellformed(spec1).ok
    assert wellformed(spec2).ok


def test_identity_gauge_is_wellformed_on_a_maximal_order():
    a = order(2)
    assert wellformed(InvolutionSpec(a, JetMatrix.identity(BASE, 2))).ok


def test_identity_gauge_fails_on_a_multi_block_order():
    # the conjugate-transpose sends a below-diagonal generator to an
    # above-diagonal position that demands positive valuation; only the
    # t-powers of a compensating gauge restore stability
    a = order(4, 2)
    diagres = wellformed(InvolutionSpec(a, JetMatrix.identity(BASE, 6)))
    assert not diagres.ok
    assert diagres.code == "NotStable"


def test_antidiagonal_gauge_on_two_blocks_is_wellformed():
    # swapping the two singleton blocks maps e11 -> e22 and t*e12 -> t*e12,
    # so every generator stays inside the order
    a = order(1, 1)
    one = LaurentJet.one(BASE)
    z = LaurentJet.zero(BASE)
    gauge = JetMatrix.of([[z, one], [one, z]])
    diagres = wellformed(InvolutionSpec(a, gauge))
    assert diagres.ok


def test_unbalanced_diagonal_gauge_is_not_stable():
    a = order(1, 1)
    gauge = JetMatrix.diagonal([LaurentJet.t_power(BASE, 1), LaurentJet.one(BASE)])
    diagres = wellformed(InvolutionSpec(a, gauge))
    assert not diagres.ok
    assert diagres.code == "NotStable"
    assert "e[2,1]" in diagres.detail


def test_non_hermitian_gauge_is_rejected():
    a = order(1, 1)
    one = LaurentJet.one(BASE)
    z = LaurentJet.zero(BASE)
    gauge = JetMatrix.of([[one, one], [z, one]])
    diagres = wellformed(InvolutionSpec(a, gauge))
    assert not diagres.ok
    assert diagres.code == "NotEpsilonHermitian"


@pytest.mark.parametrize("precision", [4, 16, 64])
def test_singular_hermitian_gauge_is_not_invertible(precision):
    # eliminating with the truncated inverse of 1 + t leaves a second
    # pivot that is zero only to its precision; the gauge is exact and
    # singular, so more precision would never help
    a = order(1, 1)
    e = LaurentJet.from_coeffs(BASE, 0, [1, 1])
    try:
        set_default_precision(precision)
        diagres = wellformed(InvolutionSpec(a, JetMatrix.of([[e, e], [e, e]])))
    finally:
        set_default_precision(16)
    assert diagres.code == "NotInvertible"


def _random_gauge_spec(kind, rng):
    # tau(u) * D * u with D a diagonal of t-powers; D steps by one from
    # block to block (well formed for a unit u) or is unbalanced; the
    # reference's quaternion products limit those cases to n <= 3
    n = rng.randint(1, 3 if kind == QUATERNION else 4)
    p = rng.randint(0, n - 1)
    parts = (p, n - p) if p else (n,)
    a = order(*parts, kind=kind)
    if rng.random() < 0.5:
        powers = [b for b, size in enumerate(parts) for _ in range(size)]
    else:
        powers = [rng.randint(-1, 2) for _ in range(n)]
    d = JetMatrix.diagonal([LaurentJet.t_power(kind, e, rng.choice([-2, -1, 1, 2]))
                            for e in powers])
    shape = rng.randrange(3)
    if shape == 0:
        u = sample_block_unit(a, rng, bound=1)
    elif shape == 1:  # non-monomial unit: its inverse is truncated
        u = sample_block_unit(a, rng, bound=1) + JetMatrix.diagonal(
            [LaurentJet.t_power(kind, 1, random_scalar(kind, rng, 1)) for _ in range(n)])
    else:  # dense element of the order, mixing the blocks
        u = sample_element(a, rng, bound=1)
    return InvolutionSpec(a, apply_tau(u) @ d @ u)


def test_wellformed_matches_the_generator_products():
    # Working precision 8 keeps the reference's products affordable;
    # every non-monomial gauge still has a truncated inverse.
    rng = Random(71)
    saved = default_precision()
    set_default_precision(8)
    try:
        codes = set()
        for case in range(45):
            spec = _random_gauge_spec((BASE, QUAD, QUATERNION)[case % 3], rng)
            got, want = wellformed(spec), wellformed_by_products(spec)
            assert (got.code, got.detail) == (want.code, want.detail)
            codes.add(got.code)
    finally:
        set_default_precision(saved)
    assert codes == {None, "NotStable"}


def test_epsilon_minus_one_gauge_is_wellformed():
    a = order(2)
    one = LaurentJet.one(BASE)
    z = LaurentJet.zero(BASE)
    gauge = JetMatrix.of([[z, one], [-one, z]])
    assert wellformed(InvolutionSpec(a, gauge, epsilon=-1)).ok


# ---------------------------------------------------------------------------
# residue involutions


def test_residue_blocks_of_the_bundled_involutions():
    spec1, spec2, _, _ = counterexample_pair()
    r1 = residue_involution(spec1)
    assert [b.size for b in r1.blocks] == [4, 2]
    assert [b.t_power for b in r1.blocks] == [0, 1]
    assert r1.blocks[0].gauge == smat(BASE, [[1, 0, 0, 0], [0, -1, 0, 0],
                                             [0, 0, 1, 0], [0, 0, 0, -1]])
    assert r1.blocks[1].gauge == smat(BASE, [[1, 0], [0, 1]])
    r2 = residue_involution(spec2)
    assert r2.blocks[0].gauge == smat(BASE, [[1, 0, 0, 0], [0, -1, 0, 0],
                                             [0, 0, 1, 0], [0, 0, 0, 1]])
    assert r2.blocks[1].gauge == smat(BASE, [[1, 0], [0, -1]])


def test_identity_gauge_residue_block_on_a_maximal_order():
    a = order(3)
    res = residue_involution(InvolutionSpec(a, JetMatrix.identity(BASE, 3)))
    assert len(res.blocks) == 1
    assert res.blocks[0].gauge == smat_identity(BASE, 3)
    assert res.blocks[0].t_power == 0


def test_block_mixing_gauge_is_rejected():
    a = order(1, 1)
    one = LaurentJet.one(BASE)
    z = LaurentJet.zero(BASE)
    gauge = JetMatrix.of([[z, one], [one, z]])  # wellformed, but mixes blocks
    with pytest.raises(UnsupportedGaugeShape):
        residue_involution(InvolutionSpec(a, gauge))


def test_residue_involution_requires_wellformedness():
    # a diagonal gauge whose t-powers do not balance the transpose fails
    # the stability precondition before any shape inspection
    from horders.errors import NotStable
    a = order(2)
    gauge = JetMatrix.diagonal([LaurentJet.one(BASE), LaurentJet.t_power(BASE, 1)])
    with pytest.raises(NotStable):
        residue_involution(InvolutionSpec(a, gauge))


# ---------------------------------------------------------------------------
# anisotropy


def test_identity_form_is_anisotropic():
    res = anisotropy(smat_identity(BASE, 2), BASE)
    assert res.verdict == ANISOTROPIC
    assert res.signature == (2, 0)
    assert res.witness is None


def test_hyperbolic_form_has_an_exact_witness():
    b = smat(BASE, [[1, 0], [0, -1]])
    res = anisotropy(b, BASE)
    assert res.verdict == ISOTROPIC
    assert res.signature == (1, 1)
    assert res.witness is not None
    prod = smat_mul(smat_conj_transpose(res.witness), smat_mul(b, res.witness))
    assert smat_is_zero(prod)
    assert not smat_is_zero(res.witness)


def test_one_by_one_form():
    assert anisotropy(smat(BASE, [[1]]), BASE).verdict == ANISOTROPIC
    assert anisotropy(smat(BASE, [[-3]]), BASE).signature == (1, 0)


@pytest.mark.parametrize("kind", [QUAD, QUATERNION])
def test_hyperbolic_form_over_other_kinds(kind):
    b = smat(kind, [[1, 0], [0, -1]])
    res = anisotropy(b, kind)
    assert res.verdict == ISOTROPIC and res.witness is not None
    prod = smat_mul(smat_conj_transpose(res.witness), smat_mul(b, res.witness))
    assert smat_is_zero(prod)


def test_indefinite_form_may_lack_a_rational_witness():
    res = anisotropy(smat(BASE, [[1, 0], [0, -3]]), BASE)
    assert res.verdict == ISOTROPIC
    assert res.witness is None  # x^2 = 3 y^2 has no rational solution


def test_quaternion_norms_represent_everything_positive():
    res = anisotropy(smat(QUATERNION, [[1, 0], [0, -7]]), QUATERNION)
    assert res.verdict == ISOTROPIC and res.witness is not None
    b = smat(QUATERNION, [[1, 0], [0, -7]])
    prod = smat_mul(smat_conj_transpose(res.witness), smat_mul(b, res.witness))
    assert smat_is_zero(prod)


def test_quadratic_norm_equation():
    res = anisotropy(smat(QUAD, [[1, 0], [0, -2]]), QUAD)
    assert res.verdict == ISOTROPIC and res.witness is not None


def test_off_diagonal_hermitian_forms_diagonalize():
    b = smat(BASE, [[0, 1], [1, 0]])
    diag_entries, trans = diagonalize_form(b)
    assert sorted(d > 0 for d in diag_entries) == [False, True]
    d = smat_mul(smat_conj_transpose(trans), smat_mul(b, trans))
    assert d[0][1].is_zero() and d[1][0].is_zero()
    res = anisotropy(b, BASE)
    assert res.verdict == ISOTROPIC and res.witness is not None


def test_singular_form_is_rejected():
    with pytest.raises(SingularForm):
        anisotropy(smat(BASE, [[1, 0], [0, 0]]), BASE)
    with pytest.raises(SingularForm):
        anisotropy(smat(BASE, [[0, 0], [0, 0]]), BASE)


def test_alternating_forms_are_not_decided():
    with pytest.raises(UnsupportedFormKind):
        anisotropy(smat(BASE, [[0, 1], [-1, 0]]), BASE, epsilon=-1)


def test_non_hermitian_form_matrix_is_rejected():
    with pytest.raises(NotEpsilonHermitian):
        anisotropy(smat(BASE, [[1, 1], [0, 1]]), BASE)


def test_congruence_invariance_sampled():
    rng = Random(59)
    kinds = [BASE, QUAD, QUATERNION]
    for _ in range(100):
        kind = kinds[rng.randrange(3)]
        n = rng.randint(1, 3)
        diag_vals = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
        b = tuple(tuple(Scalar.rational(kind, diag_vals[i] if i == j else 0)
                        for j in range(n)) for i in range(n))
        c = _random_invertible_smat(kind, n, rng)
        b2 = smat_mul(smat_conj_transpose(c), smat_mul(b, c))
        r1, r2 = anisotropy(b, kind), anisotropy(b2, kind)
        assert r1.verdict == r2.verdict
        assert r1.signature == r2.signature


def _random_invertible_smat(kind, n, rng):
    lower = [[Scalar.rational(kind, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    upper = [[Scalar.rational(kind, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i > j:
                lower[i][j] = random_scalar(kind, rng, 2)
            elif i < j:
                upper[i][j] = random_scalar(kind, rng, 2)
    d = [[random_scalar(kind, rng, 2, nonzero=True) if i == j else Scalar.zero(kind)
          for j in range(n)] for i in range(n)]
    return smat_mul(tuple(map(tuple, lower)),
                    smat_mul(tuple(map(tuple, d)), tuple(map(tuple, upper))))


# ---------------------------------------------------------------------------
# residual anisotropy and distinguishing


def test_bundled_involutions_are_not_residually_anisotropic():
    spec1, spec2, _, _ = counterexample_pair()
    assert not residually_anisotropic(spec1)  # block 1 is indefinite
    assert not residually_anisotropic(spec2)


def test_identity_gauge_is_residually_anisotropic():
    a = order(5)
    assert residually_anisotropic(InvolutionSpec(a, JetMatrix.identity(BASE, 5)))
    b = order(3, 2)
    gauge = JetMatrix.diagonal([LaurentJet.one(BASE)] * 3 + [LaurentJet.t_power(BASE, 1)] * 2)
    assert residually_anisotropic(InvolutionSpec(b, gauge))


def test_distinguish_the_bundled_pair():
    spec1, spec2, _, _ = counterexample_pair()
    result = distinguish(spec1, spec2)
    assert result.distinguished
    assert "profiles differ" in result.reason


def test_distinguish_is_inconclusive_on_equal_specs():
    spec1, _, _, _ = counterexample_pair()
    assert distinguish(spec1, spec1).verdict == INCONCLUSIVE


def test_distinguish_ignores_global_gauge_sign():
    spec1, _, _, _ = counterexample_pair()
    flipped = InvolutionSpec(spec1.order, -spec1.gauge, spec1.epsilon)
    assert distinguish(spec1, flipped).verdict == INCONCLUSIVE


def test_distinguish_on_non_isomorphic_orders():
    s1 = InvolutionSpec(order(1, 1), JetMatrix.identity(BASE, 2))
    s2 = InvolutionSpec(order(2), JetMatrix.identity(BASE, 2))
    assert distinguish(s1, s2).distinguished


def test_distinguish_is_inconclusive_on_transported_gauges():
    rng = Random(61)
    spec1, _, _, _ = counterexample_pair()
    for _ in range(10):
        u = sample_block_unit(spec1.order, rng)
        transported = InvolutionSpec(
            spec1.order, apply_tau(u) @ spec1.gauge @ u, spec1.epsilon)
        assert wellformed(transported).ok
        assert distinguish(spec1, transported).verdict == INCONCLUSIVE
