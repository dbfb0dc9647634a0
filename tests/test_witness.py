"""Transport witnesses: exact identities, ring modes, and replays."""

from random import Random

import pytest

from horders.errors import InsufficientPrecision, UnknownScenario
from horders.involutions import InvolutionSpec, apply_tau, smat_invertible
from horders.matrices import JetMatrix
from horders.orders import BlockOrder, DivisionSpec, Signature
from horders.scalars import (
    BASE,
    QUATERNION,
    LaurentJet,
    Q,
    Scalar,
    quadratic,
    set_default_precision,
)
from horders.witness import (
    MODE_BASE,
    MODE_F,
    SCENARIOS,
    WitnessCheck,
    counterexample_pair,
    mode_etale,
    replay,
    transport_check,
    verify_witness,
)

from helpers import sample_block_unit, transport_by_samples

ALL_KINDS = [(BASE, 1, 1), (quadratic(-1), 1, 2), (QUATERNION, 2, 1)]


@pytest.mark.parametrize("kind,s,t", ALL_KINDS)
def test_generic_fiber_witness_identity(kind, s, t):
    _, _, w_fiber, _ = counterexample_pair(kind, s, t)
    assert verify_witness(w_fiber).ok


@pytest.mark.parametrize("kind,s,t", ALL_KINDS)
def test_etale_witness_identity(kind, s, t):
    # the same unit with the central adjoined root works in every model
    _, _, _, w_etale = counterexample_pair(kind, s, t)
    assert verify_witness(w_etale).ok
    assert w_etale.alpha == LaurentJet.one(kind.extended(-1))


def test_generic_fiber_witness_fails_over_the_base_ring():
    spec1, spec2, w_fiber, _ = counterexample_pair()
    base = WitnessCheck(w_fiber.u, w_fiber.alpha, MODE_BASE, spec1, spec2)
    diag = verify_witness(base)
    assert not diag.ok
    assert diag.code in ("NotInvertible", "NotContained")


def test_the_top_left_block_determinant_is_t():
    # the 2x2 block of the generic-fibre witness has determinant exactly t:
    # a unit of the fraction field but not of the coefficient ring
    _, _, w_fiber, _ = counterexample_pair()
    a, b = w_fiber.u.entry(0, 0), w_fiber.u.entry(0, 1)
    c, d = w_fiber.u.entry(1, 0), w_fiber.u.entry(1, 1)
    det = a * d - b * c
    assert det == LaurentJet.t_power(BASE, 1)


def test_trivial_witness():
    spec1, _, _, _ = counterexample_pair()
    w = WitnessCheck(JetMatrix.identity(BASE, 6), LaurentJet.one(BASE),
                     MODE_BASE, spec1, spec1)
    assert verify_witness(w).ok
    assert transport_check(w).ok


def test_wrong_alpha_is_an_identity_mismatch():
    spec1, spec2, w_fiber, _ = counterexample_pair()
    wrong = WitnessCheck(w_fiber.u, LaurentJet.one(BASE), MODE_F, spec1, spec2)
    diag = verify_witness(wrong)
    assert not diag.ok and diag.code == "IdentityMismatch"


def test_non_unit_alpha_is_reported():
    # gauges 1 and t^2 on the maximal order differ by the non-unit t^2
    a = BlockOrder(DivisionSpec("D"), Signature((2,)))
    s_one = InvolutionSpec(a, JetMatrix.identity(BASE, 2))
    s_t2 = InvolutionSpec(a, JetMatrix.identity(BASE, 2).shift(2))
    alpha = LaurentJet.t_power(BASE, 2)
    w = WitnessCheck(JetMatrix.identity(BASE, 2), alpha, MODE_BASE, s_one, s_t2)
    diag = verify_witness(w)
    assert not diag.ok and diag.code == "NotUnit"
    # over the fraction field the same alpha is a unit
    assert verify_witness(WitnessCheck(
        JetMatrix.identity(BASE, 2), alpha, MODE_F, s_one, s_t2)).ok


def test_alpha_must_lie_in_the_mode_ring():
    kind = QUATERNION
    _, _, w_fiber, _ = counterexample_pair(kind, 2, 1)
    qi = LaurentJet.constant(kind, Scalar.basis(kind, 1))
    wrong = WitnessCheck(w_fiber.u, qi, MODE_F, w_fiber.spec1, w_fiber.spec2)
    diag = verify_witness(wrong)
    assert not diag.ok
    assert diag.code in ("IdentityMismatch", "NotUnit")


@pytest.mark.parametrize("kind,s,t", ALL_KINDS)
def test_verified_witnesses_transport(kind, s, t):
    _, _, w_fiber, w_etale = counterexample_pair(kind, s, t)
    assert verify_witness(w_fiber).ok
    assert transport_check(w_fiber).ok
    assert verify_witness(w_etale).ok
    assert transport_check(w_etale).ok


def test_transport_samples_argument_has_no_effect():
    spec1, spec2, w_fiber, _ = counterexample_pair()
    identity = WitnessCheck(JetMatrix.identity(BASE, 6), LaurentJet.one(BASE), MODE_F, spec1, spec2)
    for w in (w_fiber, identity):
        assert transport_check(w, 50) == transport_check(w)


def test_transport_fails_with_a_counterexample_for_the_identity():
    spec1, spec2, _, _ = counterexample_pair()
    w = WitnessCheck(JetMatrix.identity(BASE, 6), LaurentJet.one(BASE),
                     MODE_F, spec1, spec2)
    diag = transport_check(w)
    assert not diag.ok
    assert diag.code == "TransportFailed"
    # W = a2 = diag(1,-1,1,1,t,-t) against a1 = diag(1,-1,1,-1,t,t)
    assert diag.detail == "tau(u)*a2*u is not a central multiple of a1 at entry 4,4"


def _transport_case(kind, mode, rng, *, perturb):
    """A witness over the (2,1) order with tau(u) * a2 * u = c * a1 for a
    central c, so that the transport holds; ``perturb`` then changes one
    entry of the diagonal a2.  Etale witnesses put sqrt(e) on some
    diagonal entries of u and scale the matching entries of the diagonal
    factor of a1 by e."""
    order = BlockOrder(DivisionSpec("D", kind), Signature((2, 1)))
    # a block unit times 1 + N, N = t*e[1,3] + e[3,2] in the radical
    one, t = LaurentJet.one(kind), LaurentJet.t_power(kind, 1)
    b = sample_block_unit(order, rng) @ (
        JetMatrix.identity(kind, 3) + JetMatrix.unit(kind, 3, 0, 2, t)
        + JetMatrix.unit(kind, 3, 2, 1, one))
    signs = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(3)]
    roots = [rng.random() < 0.5 for _ in range(3)]
    e = rng.choice((-1, 2, -3)) if mode == "etale" else 1
    d_target = [LaurentJet.t_power(kind, 1 if i == 2 else 0, x) for i, x in enumerate(signs)]
    d_source = [LaurentJet.t_power(kind, 1 if i == 2 else 0, x * e if r else x)
                for i, (x, r) in enumerate(zip(signs, roots))]
    a1 = apply_tau(b) @ JetMatrix.diagonal(d_source) @ b
    if perturb:
        d_target[0] = d_target[0] + LaurentJet.t_power(kind, 1, rng.choice((1, 2)))
    a2 = JetMatrix.diagonal(d_target)
    spec1, spec2 = InvolutionSpec(order, a1), InvolutionSpec(order, a2)
    if mode == "F":
        half = LaurentJet.from_coeffs(kind, 0, [Q(1, 2), Q(1, 2)])
        return WitnessCheck(b.lscale(half), half * half, MODE_F, spec1, spec2)
    if mode == "base":
        return WitnessCheck(b, one, MODE_BASE, spec1, spec2)
    ext = kind.extended(e)
    root = LaurentJet.constant(ext, Scalar.ext_gen(ext))
    r = JetMatrix.diagonal([root if x else LaurentJet.one(ext) for x in roots])
    return WitnessCheck(r @ b.extended(e), LaurentJet.one(ext), mode_etale(e), spec1, spec2)


@pytest.mark.parametrize("kind", [BASE, quadratic(-1), quadratic(-2), QUATERNION], ids=str)
@pytest.mark.parametrize("mode", ["F", "base", "etale"])
def test_transport_agrees_with_the_sampled_reference(kind, mode):
    # the reference multiplies truncated inverses; working precision 8
    # keeps it fast and still sees the t^1 perturbation
    rng = Random(f"transport:{kind}:{mode}")
    try:
        set_default_precision(8)
        for perturb in (False, True, False, True):
            w = _transport_case(kind, mode, rng, perturb=perturb)
            exact, sampled = transport_check(w), transport_by_samples(w, samples=3)
            assert (exact.ok, exact.code) == (sampled.ok, sampled.code)
            assert exact.code == ("TransportFailed" if perturb else None)
            if not perturb:
                assert verify_witness(w).ok
    finally:
        set_default_precision(16)


def test_transport_needs_a_central_factor():
    # W = tau(u) * a2 * u = qk and a1 = qj give W * a1^-1 = qi: it commutes
    # with the generator 1 but not with the order
    a = BlockOrder(DivisionSpec("D", QUATERNION, 2, 1), Signature((1,)))
    qj, qk = (JetMatrix.diagonal([LaurentJet.constant(QUATERNION, Scalar.basis(QUATERNION, k))])
              for k in (2, 3))
    w = WitnessCheck(JetMatrix.identity(QUATERNION, 1), LaurentJet.one(QUATERNION), MODE_F,
                     InvolutionSpec(a, qj), InvolutionSpec(a, qk))
    diag = transport_check(w)
    assert (diag.code, diag.detail) == (
        "TransportFailed", "tau(u)*a2*u is not a central multiple of a1 at entry 1,1")
    assert transport_by_samples(w, samples=5).code == "TransportFailed"


def _split_idempotents(kind):
    # over the extension by sqrt(-1) of a kind containing i with i^2 = -1,
    # x = i*sqrt(-1) has x^2 = 1, so (1 +- x)/2 are orthogonal idempotents
    ext = kind.extended(-1)
    x = Scalar.basis(ext, 1) * Scalar.ext_gen(ext)
    one = Scalar.one(ext)
    return (one + x).times(Q(1, 2)), (one - x).times(Q(1, 2))


def test_smat_invertible_with_zero_divisor_entries():
    e1, e2 = _split_idempotents(quadratic(-1))
    m = ((e1, e2), (e2, e1))
    assert (e1 * e2).is_zero()
    assert smat_invertible(m)  # m squares to the identity
    assert not smat_invertible(((e1, e2), (e1, e2)))
    assert not smat_invertible(((e1, Scalar.zero(e1.kind)), (Scalar.zero(e1.kind), e1)))


def test_etale_witness_with_zero_divisor_first_column():
    # u = [[e1, e2], [e2, e1]] (+) 1 over quaternion (x) Q(sqrt(-1)): both
    # entries of the first column are zero divisors, yet u^2 = 1 and
    # tau(u) * [[0,1],[1,0]] * u = 1
    e1, e2 = _split_idempotents(QUATERNION)
    ext = e1.kind
    z, one = LaurentJet.zero(ext), LaurentJet.one(ext)
    u = JetMatrix.of([[LaurentJet.constant(ext, e1), LaurentJet.constant(ext, e2), z],
                      [LaurentJet.constant(ext, e2), LaurentJet.constant(ext, e1), z],
                      [z, z, one]])
    order = BlockOrder(DivisionSpec("D", QUATERNION, 2, 1), Signature((2, 1)))
    zq, oq, tq = LaurentJet.zero(QUATERNION), LaurentJet.one(QUATERNION), LaurentJet.t_power(QUATERNION, 1)
    spec1 = InvolutionSpec(order, JetMatrix.diagonal([oq, oq, tq]))
    spec2 = InvolutionSpec(order, JetMatrix.of([[zq, oq, zq], [oq, zq, zq], [zq, zq, tq]]))
    w = WitnessCheck(u, one, mode_etale(-1), spec1, spec2)
    assert verify_witness(w).ok
    assert transport_check(w).ok


@pytest.mark.parametrize("kind", [BASE, QUATERNION.extended(-1)], ids=str)
def test_singular_u_is_not_invertible(kind):
    # tau(u) * diag(1,-1) * u = 0 for u = [[1, t], [1, t]], so the identity
    # holds with alpha = 0 and only the invertibility check can fail
    base = kind.unextended()
    a = BlockOrder(DivisionSpec("D", base), Signature((2,)))
    s1 = InvolutionSpec(a, JetMatrix.identity(base, 2))
    s2 = InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.one(base), -LaurentJet.one(base)]))
    one, t = LaurentJet.one(kind), LaurentJet.t_power(kind, 1)
    u = JetMatrix.of([[one, t], [one, t]])
    mode = MODE_F if kind.ext is None else mode_etale(kind.ext)
    diag = verify_witness(WitnessCheck(u, LaurentJet.zero(kind), mode, s1, s2))
    assert (diag.code, diag.detail) == ("NotInvertible", "u is not invertible over the Laurent field")
    assert transport_check(WitnessCheck(u, one, mode, s1, s2)).code == "NotInvertible"


def test_invertibility_is_decided_beyond_t_equal_one():
    # det u = t - 1 vanishes at t = 1, so u(1) and a1(1) are singular
    a = BlockOrder(DivisionSpec("D"), Signature((2,)))
    one, t = LaurentJet.one(BASE), LaurentJet.t_power(BASE, 1)
    u = JetMatrix.of([[t, one], [one, one]])
    s1 = InvolutionSpec(a, apply_tau(u) @ u)
    s2 = InvolutionSpec(a, JetMatrix.identity(BASE, 2))
    w = WitnessCheck(u, one, MODE_F, s1, s2)
    assert verify_witness(w).ok
    assert transport_check(w).ok


def test_inexact_inputs_are_refused():
    spec1, spec2, w_fiber, _ = counterexample_pair()
    truncated = w_fiber.u.map(
        lambda e: LaurentJet(e.kind, e.lowest_exp, e.coeffs, 8))
    w = WitnessCheck(truncated, w_fiber.alpha, MODE_F, spec1, spec2)
    with pytest.raises(InsufficientPrecision):
        verify_witness(w)


def test_replay_scenarios_all_pass():
    for name in SCENARIOS:
        report = replay(name)
        assert report.ok, [s for s in report.steps if not s.ok]


def test_replay_unknown_scenario():
    with pytest.raises(UnknownScenario):
        replay("does-not-exist")


def test_replay_reports_have_the_documented_steps():
    report = replay("main-orthogonal")
    names = [s.name for s in report.steps]
    assert "wellformed(sigma1)" in names
    assert "distinguish(sigma1, sigma2)" in names
    assert any("etale witness" in n for n in names)
