"""Transport witnesses: exact identities, ring modes, and replays."""

import json
from pathlib import Path
from operator import add
from random import Random

import pytest

from horders.errors import (OK, InsufficientPrecision, ScalarKindMismatch, SizeMismatch,
                            UnknownScenario, failure)
from horders.involutions import InvolutionSpec
from horders.matrices import JetMatrix
from horders.orders import BlockOrder, DivisionSpec, Signature
from horders.scalars import (
    BASE,
    QUATERNION,
    LaurentJet,
    Q,
    Scalar,
    ScalarKind,
    quadratic,
    smat_invertible,
)
from horders.witness import (
    DETAIL_BITS,
    MODE_BASE,
    MODE_F,
    SCENARIOS,
    RingMode,
    WitnessCheck,
    _triple_entry,
    _is_mode_coefficient,
    counterexample_pair,
    mode_etale,
    replay,
    transport_check,
    verify_witness,
)

from helpers import (entrywise, onto, random_jet, ref_identity_check, ref_matmul, ref_transport_check,
                     ref_verify_witness, sample_block_unit, sample_element, single_entry, transport_by_samples)
from test_scalars import REF_KINDS

GOLDEN = Path(__file__).resolve().parent / "golden"

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


@pytest.mark.parametrize("kind,s,t", ALL_KINDS)
def test_etale_operands_are_promoted_onto_one_kind(kind, s, t, monkeypatch):
    # the identity pads the division-kind gauges onto the etale kind as
    # coordinates, and a mismatch promotes the entries it prints onto the
    # kind instance u already lives over, so no check builds a kind
    _, _, _, w = counterexample_pair(kind, s, t)
    wrong = WitnessCheck(w.u, LaurentJet.constant(kind, 2), w.mode, w.spec1, w.spec2)
    made = []
    post_init = ScalarKind.__post_init__
    monkeypatch.setattr(ScalarKind, "__post_init__", lambda k: made.append(k) or post_init(k))
    assert verify_witness(w).ok and transport_check(w).ok
    got = verify_witness(wrong)
    assert made == []
    monkeypatch.undo()
    assert got == ref_identity_check(wrong) and got.code == "IdentityMismatch"


def test_generic_fiber_witness_fails_over_the_base_ring():
    spec1, spec2, w_fiber, _ = counterexample_pair()
    base = WitnessCheck(w_fiber.u, w_fiber.alpha, MODE_BASE, spec1, spec2)
    diag = verify_witness(base)
    assert not diag.ok
    assert diag.code in ("NotInvertible", "NotContained")


def _witness_with(**changes):
    spec1, spec2, w, _ = counterexample_pair()
    fields = {"u": w.u, "alpha": w.alpha, "mode": MODE_F, "spec1": spec1, "spec2": spec2}
    return WitnessCheck(**{**fields, **changes})


@pytest.mark.parametrize("call, error, message", [
    (lambda: RingMode("sheaf"), ValueError, "unknown ring mode 'sheaf'"),
    (lambda: RingMode("etale"), ValueError, "exactly the etale mode carries a discriminant"),
    (lambda: RingMode("base", -1), ValueError, "exactly the etale mode carries a discriminant"),
    (lambda: _witness_with(spec2=counterexample_pair(BASE, 2, 1)[1]),
     SizeMismatch, "witness endpoints must share one order"),
    (lambda: _witness_with(u=JetMatrix.diagonal([LaurentJet.one(BASE)])),
     SizeMismatch, "witness is 1x1, order has size 6"),
    (lambda: _witness_with(alpha=LaurentJet.one(QUATERNION)),
     ScalarKindMismatch, "witness entries must live over base"),
    # a discriminant is an integer: -1.0 is not read as -1, nor 2.5 truncated
    (lambda: mode_etale(2.5), TypeError, "'float' object cannot be interpreted as an integer"),
    (lambda: mode_etale(-1.0), TypeError, "'float' object cannot be interpreted as an integer"),
    (lambda: ScalarKind("quad", -1.0), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: ScalarKind("quat", None, 2.5), TypeError,
     "'float' object cannot be interpreted as an integer"),
])
def test_witness_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


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
    w = WitnessCheck(JetMatrix.diagonal([LaurentJet.one(BASE)] * 6), LaurentJet.one(BASE),
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
    s_one = InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.one(BASE)] * 2))
    s_t2 = InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.t_power(BASE, 2)] * 2))
    alpha = LaurentJet.t_power(BASE, 2)
    w = WitnessCheck(JetMatrix.diagonal([LaurentJet.one(BASE)] * 2), alpha, MODE_BASE, s_one, s_t2)
    diag = verify_witness(w)
    assert not diag.ok and diag.code == "NotUnit"
    # over the fraction field the same alpha is a unit
    assert verify_witness(WitnessCheck(
        JetMatrix.diagonal([LaurentJet.one(BASE)] * 2), alpha, MODE_F, s_one, s_t2)).ok


def test_alpha_must_lie_in_the_mode_ring():
    kind = QUATERNION
    _, _, w_fiber, _ = counterexample_pair(kind, 2, 1)
    qi = LaurentJet.constant(kind, Scalar.basis(kind, 1))
    wrong = WitnessCheck(w_fiber.u, qi, MODE_F, w_fiber.spec1, w_fiber.spec2)
    diag = verify_witness(wrong)
    assert not diag.ok
    assert diag.code in ("IdentityMismatch", "NotUnit")


def test_mode_coefficients_are_rationals_plus_rational_roots():
    kind = QUATERNION.extended(-1)
    ok = Scalar.of(kind, Q(1, 2), 0, 0, 0, 3)  # 1/2 + 3*sqrt(-1)
    assert _is_mode_coefficient(ok)
    for index in (1, 5):  # qi and qi*sqrt(-1)
        assert not _is_mode_coefficient(ok + Scalar.basis(kind, index))


@pytest.mark.parametrize("kind,s,t", ALL_KINDS)
def test_verified_witnesses_transport(kind, s, t):
    _, _, w_fiber, w_etale = counterexample_pair(kind, s, t)
    assert verify_witness(w_fiber).ok
    assert transport_check(w_fiber).ok
    assert verify_witness(w_etale).ok
    assert transport_check(w_etale).ok


def test_transport_samples_argument_has_no_effect():
    spec1, spec2, w_fiber, _ = counterexample_pair()
    identity = WitnessCheck(JetMatrix.diagonal([LaurentJet.one(BASE)] * 6), LaurentJet.one(BASE),
                            MODE_F, spec1, spec2)
    for w in (w_fiber, identity):
        assert transport_check(w, 50) == transport_check(w)


def test_transport_fails_with_a_counterexample_for_the_identity():
    spec1, spec2, _, _ = counterexample_pair()
    w = WitnessCheck(JetMatrix.diagonal([LaurentJet.one(BASE)] * 6), LaurentJet.one(BASE),
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
    one, t, z = LaurentJet.one(kind), LaurentJet.t_power(kind, 1), LaurentJet.zero(kind)
    b = sample_block_unit(order, rng) @ JetMatrix.of([[one, z, t], [z, one, z], [z, one, one]])
    signs = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(3)]
    roots = [rng.random() < 0.5 for _ in range(3)]
    e = rng.choice((-1, 2, -3)) if mode == "etale" else 1
    d_target = [LaurentJet.t_power(kind, 1 if i == 2 else 0, x) for i, x in enumerate(signs)]
    d_source = [LaurentJet.t_power(kind, 1 if i == 2 else 0, x * e if r else x)
                for i, (x, r) in enumerate(zip(signs, roots))]
    a1 = b.conj_transpose() @ JetMatrix.diagonal(d_source) @ b
    if perturb:
        d_target[0] = d_target[0] + LaurentJet.t_power(kind, 1, rng.choice((1, 2)))
    a2 = JetMatrix.diagonal(d_target)
    spec1, spec2 = InvolutionSpec(order, a1), InvolutionSpec(order, a2)
    if mode == "F":
        half = LaurentJet.from_coeffs(kind, 0, [Q(1, 2), Q(1, 2)])
        return WitnessCheck(entrywise(lambda e: half * e, b), half * half, MODE_F, spec1, spec2)
    if mode == "base":
        return WitnessCheck(b, one, MODE_BASE, spec1, spec2)
    ext = kind.extended(e)
    root = LaurentJet.constant(ext, Scalar.ext_gen(ext))
    r = JetMatrix.diagonal([root if x else LaurentJet.one(ext) for x in roots])
    return WitnessCheck(r @ onto(b, ext), LaurentJet.one(ext), mode_etale(e), spec1, spec2)


@pytest.mark.parametrize("kind", [BASE, quadratic(-1), quadratic(-2), QUATERNION], ids=str)
@pytest.mark.parametrize("mode", ["F", "base", "etale"])
def test_transport_agrees_with_the_sampled_reference(kind, mode):
    # the reference multiplies truncated inverses, which still see the
    # t^1 perturbation
    rng = Random(f"transport:{kind}:{mode}")
    for perturb in (False, True, False, True):
        w = _transport_case(kind, mode, rng, perturb=perturb)
        exact, sampled = transport_check(w), transport_by_samples(w, samples=3)
        assert (exact.ok, exact.code) == (sampled.ok, sampled.code)
        assert exact.code == ("TransportFailed" if perturb else None)
        if not perturb:
            assert verify_witness(w).ok


def test_transport_needs_a_central_factor():
    # W = tau(u) * a2 * u = qk and a1 = qj give W * a1^-1 = qi: it commutes
    # with the generator 1 but not with the order
    a = BlockOrder(DivisionSpec("D", QUATERNION, 2, 1), Signature((1,)))
    qj, qk = (JetMatrix.diagonal([LaurentJet.constant(QUATERNION, Scalar.basis(QUATERNION, k))])
              for k in (2, 3))
    w = WitnessCheck(JetMatrix.diagonal([LaurentJet.one(QUATERNION)]), LaurentJet.one(QUATERNION),
                     MODE_F, InvolutionSpec(a, qj), InvolutionSpec(a, qk))
    diag = transport_check(w)
    assert (diag.code, diag.detail) == (
        "TransportFailed", "tau(u)*a2*u is not a central multiple of a1 at entry 1,1")
    assert transport_by_samples(w, samples=5).code == "TransportFailed"


# ---------------------------------------------------------------------------
# Packed identities against the jet-product reference


def _mixed_jet(kind, rng, zero=0.3):
    """1-3 terms from t^-2 up over mixed denominators; exactly zero with
    probability ``zero``."""
    if rng.random() < zero:
        return LaurentJet.zero(kind)
    return LaurentJet(kind, rng.randint(-2, 2), [
        Scalar(kind, [Q(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) for _ in range(kind.dim)])
        for _ in range(rng.randint(1, 3))])


def _mixed_matrix(kind, rng, n, zero_row=False):
    rows = [[_mixed_jet(kind, rng) for _ in range(n)] for _ in range(n)]
    if zero_row:
        rows[rng.randrange(n)] = [LaurentJet.zero(kind)] * n
    return JetMatrix.of(rows)


PACKED_CASES = ("random", "holds", "top", "wP", "cancel", "roots", "noncentral")


def _packed_case(kind, rng, case):
    """A witness over the n x n maximal order of the core of ``kind`` in
    the mode whose working kind is ``kind``, or None if ``case`` needs a
    quaternion core.  Cases that hold set a1 = alpha^-1 * tau(u) * a2 * u
    for a rational monomial alpha; ``top`` then changes the top coefficient
    of a1's highest entry and ``wP`` adds t^20 to a diagonal entry of u;
    ``cancel`` gives a2 the block [[0, c], [-c, 0]] at rows and columns 0
    and 1, so c * (u[0][i] * u[1][i] - u[1][i] * u[0][i]) cancels in entry
    (i, i) of tau(u) * a2 * u over a base core; ``roots`` puts sqrt(ext) on some
    diagonal entries of u; ``noncentral`` has a2 = qi * a1 and u = 1."""
    base = ScalarKind(kind.core, kind.d)
    mode = MODE_F if kind.ext is None else mode_etale(kind.ext)
    n = rng.randint(2, 4 if kind.dim < 4 else 3)  # invertibility tests grow fast with n * dim
    order = BlockOrder(DivisionSpec("D", base), Signature((n,)))
    one = LaurentJet.one(base)

    def witness(u, alpha, a1, a2):
        return WitnessCheck(u, alpha, mode, InvolutionSpec(order, a1), InvolutionSpec(order, a2))

    if case == "random":
        return witness(_mixed_matrix(kind, rng, n, rng.random() < 0.3), _mixed_jet(kind, rng),
                       _mixed_matrix(base, rng, n), _mixed_matrix(base, rng, n, rng.random() < 0.3))
    if case == "noncentral":
        if base.core != "quat":
            return None
        a1 = _mixed_matrix(base, rng, n)
        qi = LaurentJet.constant(base, Scalar.basis(base, 1))
        return witness(JetMatrix.diagonal([one] * n), one, a1, entrywise(lambda e: qi * e, a1))
    if case == "roots" and kind.ext is not None:
        b = _mixed_matrix(base, rng, n)
        roots = [rng.random() < 0.5 for _ in range(n)]
        d = [_mixed_jet(base, rng, zero=0) for _ in range(n)]
        root = LaurentJet.constant(kind, Scalar.ext_gen(kind))
        r = JetMatrix.diagonal([root if x else LaurentJet.one(kind) for x in roots])
        e = LaurentJet.constant(base, kind.ext)
        a1 = b.conj_transpose() @ JetMatrix.diagonal([e * x if y else x for x, y in zip(d, roots)]) @ b
        return witness(r @ onto(b, kind), LaurentJet.one(kind), a1, JetMatrix.diagonal(d))
    u, a2 = _mixed_matrix(base, rng, n), _mixed_matrix(base, rng, n)
    if case == "cancel":
        c = LaurentJet.constant(base, rng.choice((1, -2, Q(1, 3))))
        z = LaurentJet.zero(base)
        a2 = JetMatrix.of([[z, c] + list(a2.rows[0][2:]), [-c, z] + list(a2.rows[1][2:])]
                          + list(a2.rows[2:]))
    if case == "wP":
        i = rng.randrange(n)
        # a2[i][i] = 1: t^40 survives
        a2 = entrywise(add, a2, single_entry(base, n, i, i, one - a2.entry(i, i)))
    alpha = LaurentJet.t_power(base, rng.randint(-2, 2), Q(rng.choice((1, -1, 2, -3)), rng.choice((1, 3))))
    a1 = entrywise(lambda x: alpha.inverse() * x, u.conj_transpose() @ a2 @ u)
    if case == "wP":
        u = entrywise(add, u, single_entry(base, n, i, i, LaurentJet.t_power(base, 20)))
    if case == "top":
        cells = [(i, j) for i in range(n) for j in range(n) if a1.entry(i, j).coeffs]
        i, j = max(cells, key=lambda c: a1.entry(*c).degree(), default=(0, 0))
        top = a1.entry(i, j).degree() if cells else 0
        a1 = entrywise(add, a1, single_entry(base, n, i, j, LaurentJet.t_power(base, top, Q(1, 5))))
    return witness(u, alpha, a1, a2)


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_packed_identities_match_the_jet_products(kind):
    rng = Random(f"packed:{kind}")
    for case in PACKED_CASES:
        for _ in range(2):
            w = _packed_case(kind, rng, case)
            if w is None:
                continue
            ref = ref_identity_check(w)
            if case in ("holds", "cancel", "roots"):
                assert ref.ok, case
            elif case in ("top", "wP", "noncentral"):
                assert ref.code == "IdentityMismatch", case
            got = verify_witness(w)
            assert got == ref if not ref.ok else got.code != "IdentityMismatch", case
            transport = transport_check(w)
            assert transport == ref_transport_check(w), case
            if case == "noncentral" and w.spec1.gauge.field_invertible():
                assert transport.code == "TransportFailed"


@pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 64, 200])
def test_the_packing_point_is_just_large_enough(m):
    # tau(u) * a2 * u = t against alpha * a1 = 2^m: the difference t - 2^m
    # has largest coefficient 2^m, so at X = 2^m both sides would be 2^m
    a = BlockOrder(DivisionSpec("D"), Signature((1,)))
    one = LaurentJet.one(BASE)
    w = WitnessCheck(JetMatrix.diagonal([LaurentJet.one(BASE)]), one, MODE_F,
                     InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.constant(BASE, 2 ** m)])),
                     InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.t_power(BASE, 1)])))
    diag = verify_witness(w)
    assert (diag.code, diag.detail) == (
        "IdentityMismatch", f"tau(u)*a2*u != alpha*a1 at entry 1,1: t vs {2 ** m}")


def _ones(n: int) -> LaurentJet:
    return LaurentJet(BASE, 0, [Scalar.one(BASE)] * n)


# each value with the bits of its numerators and denominators in all: 2^m
# has m + 1 bits above and 1 below, and 1 + t + ... + t^(n-1) has 2n
@pytest.mark.parametrize("c, bits", [
    (LaurentJet.constant(BASE, 2 ** (DETAIL_BITS - 2)), DETAIL_BITS),
    (LaurentJet.constant(BASE, 2 ** (DETAIL_BITS - 1)), DETAIL_BITS + 1),
    (_ones(DETAIL_BITS // 2), DETAIL_BITS),
    (_ones(DETAIL_BITS // 2 + 1), DETAIL_BITS + 2)], ids=["one_term", "one_term_above",
                                                          "many_terms", "many_terms_above"])
def test_a_detail_prints_a_laurent_polynomial_in_full_only_up_to_its_bit_bound(c, bits):
    one, zero = LaurentJet.one(BASE), LaurentJet.zero(BASE)
    ct = c * LaurentJet.t_power(BASE, 1)
    span = len(c.coeffs) - 1
    shown = {0: str(c), 1: str(ct)} if bits <= DETAIL_BITS else {
        k: f"a Laurent polynomial in t^{k}..t^{k + span} with integers of {bits} bits in all"
        for k in (0, 1)}
    a, a2 = (BlockOrder(DivisionSpec("D"), Signature(parts)) for parts in ((1,), (1, 1)))
    mismatch = WitnessCheck(JetMatrix.diagonal([one]), one, MODE_F,
                            InvolutionSpec(a, JetMatrix.diagonal([c])),
                            InvolutionSpec(a, JetMatrix.diagonal([one])))
    valuation = WitnessCheck(JetMatrix.diagonal([one]), ct, MODE_BASE,
                             InvolutionSpec(a, JetMatrix.diagonal([one])),
                             InvolutionSpec(a, JetMatrix.diagonal([ct])))
    u = JetMatrix.of([[one, c], [zero, one]])  # entry 1,2 must lie in the radical
    outside = WitnessCheck(u, one, MODE_BASE, InvolutionSpec(a2, u.conj_transpose() @ u),
                           InvolutionSpec(a2, JetMatrix.diagonal([one, one])))
    details = [verify_witness(w).describe() for w in (mismatch, valuation, outside)]
    assert details == [
        f"IdentityMismatch: tau(u)*a2*u != alpha*a1 at entry 1,1: 1 vs {shown[0]}",
        f"NotUnit: alpha = {shown[1]} has valuation 1, not a unit",
        f"NotContained: u entry 1,2 = {shown[0]} violates the order pattern"]
    # in full, a detail is at most about 310 digits or 512 terms of t long
    assert max(map(len, details)) < (5000 if bits <= DETAIL_BITS else 200)


def test_witness_checks_build_no_jet_matrix_product(monkeypatch):
    def refuse(self, other):
        raise AssertionError("JetMatrix.__matmul__ called")

    witnesses = [w for kind, s, t in ALL_KINDS for w in counterexample_pair(kind, s, t)[2:]]
    monkeypatch.setattr(JetMatrix, "__matmul__", refuse)
    for w in witnesses:
        assert verify_witness(w).ok
        assert transport_check(w).ok


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
    base = ScalarKind(kind.core, kind.d)
    a = BlockOrder(DivisionSpec("D", base), Signature((2,)))
    s1 = InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.one(base)] * 2))
    s2 = InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.one(base), -LaurentJet.one(base)]))
    one, t = LaurentJet.one(kind), LaurentJet.t_power(kind, 1)
    u = JetMatrix.of([[one, t], [one, t]])
    mode = MODE_F if kind.ext is None else mode_etale(kind.ext)
    diag = verify_witness(WitnessCheck(u, LaurentJet.zero(kind), mode, s1, s2))
    assert (diag.code, diag.detail) == ("NotInvertible", "u is not invertible over the Laurent field")
    assert transport_check(WitnessCheck(u, one, mode, s1, s2)).code == "NotInvertible"


def test_a_singular_u_over_a_split_centre_is_not_invertible():
    # quadratic(-1)+sqrt(-1) has centre Q(i) x Q(i), with the nonzero
    # idempotent e = (1 + i*sqrt(-1))/2; conjugation swaps the factors, so
    # tau(u) * u = 0 for u = e * 1 and m = 0, and u is asked and refused
    base = quadratic(-1)
    kind = base.extended(-1)
    e = LaurentJet.constant(kind, Scalar.of(kind, Q(1, 2), 0, 0, Q(1, 2)))
    assert e * e == e
    a = BlockOrder(DivisionSpec("D", base), Signature((2,)))
    s1 = InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.one(base)] * 2))
    w = WitnessCheck(JetMatrix.diagonal([e, e]), LaurentJet.one(kind), mode_etale(-1), s1, s1)
    assert transport_check(w).describe() == "NotInvertible: u is not invertible over the Laurent field"


def test_dense_singular_matrix_over_a_split_kind_is_singular():
    # 6x6 degree-1 u over quaternion+sqrt(-1) whose last row repeats the
    # first: all D + 1 = 49 evaluations of a 48x48 rational matrix run
    kind = QUATERNION.extended(-1)
    rng = Random(5)

    def entry():
        return LaurentJet(kind, 0, tuple(
            Scalar(kind, tuple(rng.randint(-3, 3) for _ in range(kind.dim))) for _ in range(2)))

    rows = [[entry() for _ in range(6)] for _ in range(5)]
    assert not JetMatrix.of(rows + [rows[0]]).field_invertible()
    assert JetMatrix.of(rows + [[entry() for _ in range(6)]]).field_invertible()


def test_invertibility_is_decided_beyond_t_equal_one():
    # det u = t - 1 vanishes at t = 1, so u(1) and a1(1) are singular
    a = BlockOrder(DivisionSpec("D"), Signature((2,)))
    one, t = LaurentJet.one(BASE), LaurentJet.t_power(BASE, 1)
    u = JetMatrix.of([[t, one], [one, one]])
    s1 = InvolutionSpec(a, u.conj_transpose() @ u)
    s2 = InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.one(BASE)] * 2))
    w = WitnessCheck(u, one, MODE_F, s1, s2)
    assert verify_witness(w).ok
    assert transport_check(w).ok


def test_inexact_inputs_are_refused():
    # refused when built: u by JetMatrix, alpha by WitnessCheck; each
    # truncated value here is a series inverse modulo t^8
    spec1, spec2, w_fiber, _ = counterexample_pair()
    with pytest.raises(InsufficientPrecision, match="matrix entries are exact"):
        entrywise(lambda e: e.inverse(8) if e.coeffs else e, w_fiber.u)
    with pytest.raises(InsufficientPrecision, match="alpha is an exact Laurent polynomial"):
        WitnessCheck(w_fiber.u, w_fiber.alpha.inverse(8), MODE_F, spec1, spec2)


# ---------------------------------------------------------------------------
# verify_witness asks the order-unit check before the Laurent field; the
# reference asks identity, field, unit and alpha in turn


FIELD_SINGULAR = ("NotInvertible", "u is not invertible over the Laurent field")


def _tail_case(rng, kind, mode):
    """A witness on a random block order over ``kind``, and the shape of
    its u.  u = E * B: B over ``kind`` is a unit of the order, or one with
    row i scaled by t (``t``) or by t^-1 (``outside``), or with row i
    replaced by row j (``copy``) or by t^-1 times it (``copy_outside``);
    E is diagonal over the working kind, with 1 or the adjoined root on
    each entry and, over a split etale kind, an idempotent zero divisor
    on one (shape ``idempotent``).  a2 is a diagonal of rational
    monomials, so a1 = alpha^-1 * tau(u) * a2 * u stays over ``kind``;
    one witness in ten then has a1 changed at one entry."""
    parts = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
    while sum(parts) > (3 if kind.dim > 2 else 5):
        parts = parts[1:]
    order = BlockOrder(DivisionSpec("D", kind), Signature(parts))
    n, one, t = order.sig.n, LaurentJet.one(kind), LaurentJet.t_power(kind, 1)
    rows = [list(row) for row in entrywise(
        add, sample_block_unit(order, rng), sample_element(order, rng, radical=True)).rows]
    shape = rng.choice(["unit"] * 3 + ["t", "outside"] + ["copy", "copy_outside"] * (n > 1))
    if shape != "unit":
        i, j = rng.sample(range(n), 2) if shape.startswith("copy") else [rng.randrange(n)] * 2
        scale = t if shape == "t" else one if shape == "copy" else LaurentJet.t_power(kind, -1)
        rows[i] = [scale * e for e in rows[j]]
    b = JetMatrix.of(rows)

    a2 = [LaurentJet.t_power(kind, rng.randint(-1, 1), Q(rng.choice((1, -1, 2, -3)),
                                                          rng.choice((1, 3))))
          for _ in range(n)]
    weights, u = [1] * n, b
    if mode.ring == "etale":
        ext = kind.extended(mode.d)
        root, e = LaurentJet.constant(ext, Scalar.ext_gen(ext)), [LaurentJet.one(ext)] * n
        for k in range(n):
            if rng.random() < 0.5:
                e[k], weights[k] = root, mode.d
        if mode.d == -1 and kind in (quadratic(-1), QUATERNION) and rng.random() < 0.3:
            k = rng.randrange(n)
            e[k], weights[k] = LaurentJet.constant(ext, _split_idempotents(kind)[0]), 0
            shape = "idempotent"
        u = JetMatrix.diagonal(e) @ onto(b, ext)
    middle = JetMatrix.diagonal([x * LaurentJet.constant(kind, w) for x, w in zip(a2, weights)])

    choices = [one, LaurentJet.constant(kind, 2), t, LaurentJet.t_power(kind, -1)]
    if kind.core == "quat":
        choices.append(LaurentJet.constant(kind, Scalar.basis(kind, 1)))
    alpha = rng.choice(choices)
    a1 = entrywise(lambda x: alpha.inverse() * x, b.conj_transpose() @ middle @ b)
    if rng.random() < 0.1:
        a1 = entrywise(add, a1, single_entry(kind, n, rng.randrange(n), rng.randrange(n), one))
    return WitnessCheck(u, alpha, mode, InvolutionSpec(order, a1),
                        InvolutionSpec(order, JetMatrix.diagonal(a2))), shape


TAIL_MODES = [(BASE, MODE_BASE), (BASE, mode_etale(-1)), (BASE, mode_etale(2)),
              (quadratic(-1), MODE_BASE), (quadratic(-1), mode_etale(-1)),
              (QUATERNION, MODE_BASE), (QUATERNION, mode_etale(-1)),
              (QUATERNION, mode_etale(-2))]


def test_the_unit_check_first_gives_the_reference_diagnostics():
    rng = Random(29)
    seen = set()
    for _ in range(160):
        kind, mode = rng.choice(TAIL_MODES)
        w, shape = _tail_case(rng, kind, mode)
        got, want = verify_witness(w), ref_verify_witness(w)
        assert (got.ok, got.code, got.detail) == (want.ok, want.code, want.detail), (shape, w)
        seen.add((shape, got.code, got.detail.split(":")[0]))
    outcomes = {(code, detail) for _, code, detail in seen}
    assert {(None, ""), FIELD_SINGULAR, ("NotInvertible", "u is not a unit of the order")} <= outcomes
    assert {"NotContained", "NotUnit", "IdentityMismatch"} <= {code for code, _ in outcomes}
    # a u singular over the Laurent field that the unit check turned away
    # first, for leaving the order and for a zero-divisor residue entry
    assert ("copy_outside", *FIELD_SINGULAR) in seen and ("idempotent", *FIELD_SINGULAR) in seen


def _fibre_case(rng, kind):
    """A generic-fibre witness on a random block order over ``kind``, and
    its shape: u has random entries, with row i copied onto row j when u
    is singular (``singular_u``, ``singular_both``); a2 is a diagonal of
    rational monomials with one zero when it is singular (``singular_a2``,
    ``singular_both``), and zero for a zero alpha (``zero_alpha``); alpha
    is a nonzero rational Laurent polynomial, or a quaternion or quadratic
    unit (``irrational_alpha``).  a1 is chosen so the identity holds;
    one witness in ten then has a1 changed at one entry."""
    parts = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 3)))
    order = BlockOrder(DivisionSpec("D", kind), Signature(parts))
    n = order.sig.n
    one, t, zero = LaurentJet.one(kind), LaurentJet.t_power(kind, 1), LaurentJet.zero(kind)
    shape = rng.choice(["valid"] * 3 + ["singular_a2", "zero_alpha"]
                       + ["singular_u", "singular_both"] * (n > 1)
                       + ["irrational_alpha"] * (kind != BASE))
    rows = [[random_jet(kind, rng, lowest=-1, highest=2) if rng.random() < 0.7 else zero
             for _ in range(n)] for _ in range(n)]
    if shape in ("singular_u", "singular_both"):
        i, j = rng.sample(range(n), 2)
        rows[i] = [t * e for e in rows[j]]
    u = JetMatrix.of(rows)
    a2 = [LaurentJet.t_power(kind, rng.randint(-1, 1), rng.choice((1, -1, 2))) for _ in range(n)]
    if shape in ("singular_a2", "singular_both"):
        a2[rng.randrange(n)] = zero
    a1 = u.conj_transpose() @ JetMatrix.diagonal(a2) @ u
    if shape == "zero_alpha":
        alpha, a2 = zero, [zero] * n
    elif shape == "irrational_alpha":
        alpha = LaurentJet.constant(kind, Scalar.basis(kind, 1))
        a1 = entrywise(lambda x: alpha.inverse() * x, a1)
    else:
        alpha = rng.choice([one, LaurentJet.constant(kind, 2), t, LaurentJet.t_power(kind, -1),
                            one + t])
        a2 = [alpha * x for x in a2]  # alpha is central, so tau(u) * a2 * u = alpha * a1
    if rng.random() < 0.1:
        a1 = entrywise(add, a1, single_entry(kind, n, rng.randrange(n), rng.randrange(n), one))
    return WitnessCheck(u, alpha, MODE_F, InvolutionSpec(order, a1),
                        InvolutionSpec(order, JetMatrix.diagonal(a2))), shape


def test_the_generic_fibre_asks_u_only_when_a1_leaves_it_open(monkeypatch):
    # tau(u) * a2 * u = alpha * a1, alpha a nonzero rational and a1
    # invertible, give u a left inverse, so u is asked only otherwise, and
    # the diagnostics are those of the reference, which always asks u
    rng = Random(59)
    asked = []
    field_invertible = JetMatrix.field_invertible
    monkeypatch.setattr(JetMatrix, "field_invertible",
                        lambda m: asked.append(m) or field_invertible(m))
    seen, details = set(), set()
    for _ in range(150):
        w, shape = _fibre_case(rng, rng.choice([k for k, _, _ in ALL_KINDS]))
        want = ref_verify_witness(w)
        asked.clear()
        got = verify_witness(w)
        assert (got.ok, got.code, got.detail) == (want.ok, want.code, want.detail), (shape, w)
        if got.ok:  # u is asked exactly when a1 is singular
            regular = field_invertible(w.spec1.gauge)
            assert any(m is w.u for m in asked) is not regular, (shape, w)
            seen.add((shape, "regular a1" if regular else "singular a1"))
        seen.add((shape, got.code))
        details.add(got.detail)
    assert {("valid", "regular a1"), ("singular_a2", "singular a1"),
            ("singular_u", FIELD_SINGULAR[0]), ("singular_both", FIELD_SINGULAR[0]),
            ("zero_alpha", "NotUnit"), ("irrational_alpha", "NotUnit"),
            ("valid", "IdentityMismatch")} <= seen
    assert {FIELD_SINGULAR[1], "alpha is zero"} <= details
    assert any(d.endswith("does not lie in the generic-fiber ring") for d in details)


@pytest.mark.parametrize("kind,s,t", ALL_KINDS)
def test_a_verified_unit_witness_asks_nothing_over_the_laurent_field(kind, s, t, monkeypatch):
    spec1, _, w_fiber, w_etale = counterexample_pair(kind, s, t)
    trivial = WitnessCheck(JetMatrix.diagonal([LaurentJet.one(kind)] * 6), LaurentJet.one(kind),
                           MODE_BASE, spec1, spec1)
    calls = []
    field_invertible = JetMatrix.field_invertible
    monkeypatch.setattr(JetMatrix, "field_invertible",
                        lambda m: calls.append(m) or field_invertible(m))
    assert verify_witness(w_etale).ok and verify_witness(trivial).ok
    assert calls == []
    # the generic fibre asks a1, whose invertibility the identity carries over to u
    assert verify_witness(w_fiber).ok and [m is w_fiber.spec1.gauge for m in calls] == [True]


@pytest.mark.parametrize("kind,s,t", ALL_KINDS)
def test_a_passing_transport_asks_only_the_first_gauge_over_the_field(kind, s, t, monkeypatch):
    # N * W = m * a1 with m != 0 and a1 invertible proves u invertible
    _, _, w_fiber, w_etale = counterexample_pair(kind, s, t)
    calls = []
    field_invertible = JetMatrix.field_invertible
    monkeypatch.setattr(JetMatrix, "field_invertible",
                        lambda m: calls.append(m) or field_invertible(m))
    for w in (w_fiber, w_etale):
        calls.clear()
        assert transport_check(w).ok
        assert calls == [w.spec1.gauge]


def test_diagnostics_are_true_exactly_when_ok():
    assert bool(OK) is True
    assert bool(failure("X")) is False
    assert bool(failure("X", "detail")) is False


@pytest.mark.parametrize("mode,name", [(MODE_BASE, "base"), (mode_etale(-1), "etale(-1)"),
                                       (MODE_F, "generic-fiber")])
def test_an_alpha_outside_the_mode_ring_is_named_with_the_mode(mode, name):
    # a1 = qi^-1 * a2, so the identity holds and only alpha fails
    a = BlockOrder(DivisionSpec("D", QUATERNION, 2, 1), Signature((2,)))
    one = LaurentJet.one(QUATERNION)
    qi = LaurentJet.constant(QUATERNION, Scalar.basis(QUATERNION, 1))
    w = WitnessCheck(JetMatrix.diagonal([one, one]), qi, mode,
                     InvolutionSpec(a, JetMatrix.diagonal([-qi, -qi])),
                     InvolutionSpec(a, JetMatrix.diagonal([one, one])))
    assert str(mode) == name
    assert verify_witness(w).describe() == f"NotUnit: alpha = qi does not lie in the {name} ring"


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


@pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s.startswith("main-")])
@pytest.mark.parametrize("planted", ["non-isotropic", "zero"])
def test_replay_fails_a_witness_that_does_not_annihilate_the_form(scenario, planted,
                                                                  monkeypatch):
    # the replay checks v^* * b * v = 0 and v != 0 itself, so a block-2
    # witness that is not isotropic, or is zero, fails that step
    from horders import involutions, witness

    real = witness.residue_isotropy

    def planted_isotropy(spec):
        results = real(spec)
        iso = results[1]
        if iso.witness is None:
            return results
        if planted == "zero":
            v = tuple(Scalar.zero(x.kind) for x in iso.witness)
        else:
            # column 1 of C with C^* * b * C diagonal: v^* * b * v = d_1 != 0
            b = involutions.residue_involution(spec).blocks[1].gauge
            v = tuple(row[0] for row in involutions.diagonalize_form(b)[1])
        return [results[0], involutions.IsotropyResult(iso.verdict, iso.signature, v),
                *results[2:]]

    monkeypatch.setattr(witness, "residue_isotropy", planted_isotropy)
    report = replay(scenario)
    steps = {s.name: s for s in report.steps}
    step = steps["witness annihilates the form exactly"]
    assert (step.expected, step.actual, step.ok) == ("ok", "failed", False)
    assert steps["block 2 of sigma2"].ok
    assert not report.ok


@pytest.mark.parametrize("scenario", [s for s in SCENARIOS if s.startswith("main-")])
def test_replay_asks_the_base_ring_in_full_when_the_generic_fibre_fails(scenario, monkeypatch):
    # a failed generic-fibre verdict cannot be reused, so the base-ring
    # step runs verify_witness itself, and still rejects the witness
    from horders import witness

    real, modes = witness.verify_witness, []

    def fibre_fails(w):
        modes.append(w.mode)
        return failure("IdentityMismatch", "planted") if w.mode == MODE_F else real(w)

    monkeypatch.setattr(witness, "verify_witness", fibre_fails)
    report = replay(scenario)
    steps = {s.name: s for s in report.steps}
    assert not steps["verify generic-fiber witness, alpha = t"].ok
    step = steps["generic-fiber witness is rejected over the base ring"]
    assert (step.actual, step.ok) == ("rejected", True)
    assert modes.count(MODE_BASE) == 1
    assert not report.ok


def test_replay_counts_the_failed_grid_combinations(monkeypatch):
    # the replay runs verify_sh_pattern's per-case check, looked up in basechange
    from horders import basechange, witness

    total = sum(1 for _ in witness.sh_grid())
    real = basechange._sh_pattern_holds
    monkeypatch.setattr(basechange, "_sh_pattern_holds", lambda perm, s, t, sig: (
        (s, t, sig.parts) != (2, 3, (1, 2)) and real(perm, s, t, sig)))
    report = replay("sh-permutation")
    assert [(s.expected, s.actual, s.ok) for s in report.steps] == [
        (f"{total} combinations verified", f"1 of {total} combinations failed", False)]
    assert not report.ok


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_replay_does_each_piece_of_work_once(scenario, monkeypatch):
    # each main-* replay validates its two gauges once each, decides each
    # of their four residue blocks once (every anisotropy call diagonalises
    # its block once) and checks two transport identities, as the base-ring
    # verdict reuses the generic-fibre one; the gauges are compared with
    # tau of themselves in place, their 1 x 1 components need no solve, and
    # the residue blocks are not checked again for being hermitian.  No
    # witness u is asked over the Laurent field: the generic fibre asks a1,
    # as the identity then proves u invertible.  sh-permutation builds one
    # permutation per shape (s, t, n) of its grid
    from horders import basechange, involutions, witness

    validated, decided, identities, solves = [], [], [], []
    asked, witnesses, perms = [], [], []
    field_invertible, verify, permutation = (
        JetMatrix.field_invertible, witness.verify_witness, basechange.sh_permutation)
    monkeypatch.setattr(JetMatrix, "field_invertible",
                        lambda m: asked.append(m) or field_invertible(m))
    monkeypatch.setattr(witness, "verify_witness", lambda w: witnesses.append(w) or verify(w))
    monkeypatch.setattr(basechange, "sh_permutation",
                        lambda *args: perms.append(args) or permutation(*args))
    require = involutions._require_wellformed
    diagonalize, difference = involutions.diagonalize_form, witness.first_difference
    solve = JetMatrix._solve
    monkeypatch.setattr(involutions, "_require_wellformed",
                        lambda spec: validated.append(spec) or require(spec))
    monkeypatch.setattr(involutions, "diagonalize_form",
                        lambda *args: decided.append(args) or diagonalize(*args))
    monkeypatch.setattr(witness, "first_difference",
                        lambda *args: identities.append(args) or difference(*args))
    monkeypatch.setattr(JetMatrix, "_solve",
                        lambda self, comp: solves.append(comp) or solve(self, comp))
    copies = _count_witness_copies(monkeypatch)
    rechecks = _count_calls_inside(
        monkeypatch, [(witness, "wellformed"), (witness, "residue_isotropy"),
                      (involutions, "residue_isotropy")],
        [(JetMatrix, "conj_transpose")])
    report = replay(scenario)
    golden = json.loads((GOLDEN / f"replay-{scenario}.json").read_bytes())
    assert [(s.name, s.expected, s.actual, s.ok) for s in report.steps] == [
        (s["name"], s["expected"], s["actual"], s["ok"]) for s in golden["steps"]]
    assert len(validated) == (2 if scenario.startswith("main-") else 0)
    assert len({id(spec) for spec in validated}) == len(validated)
    assert len(decided) == (4 if scenario.startswith("main-") else 0)
    assert len(identities) == (2 if scenario.startswith("main-") else 0)
    assert copies == []  # tau(u) is read from u's image
    assert rechecks == []
    assert solves == []  # every gauge of a replay is diagonal
    assert len(witnesses) == (2 if scenario.startswith("main-") else 0)
    assert not any(m is w.u for m in asked for w in witnesses)
    shapes = {(s, t, sig.n) for s, t, sig in witness.sh_grid()}
    assert len(shapes) == 70
    built = shapes if scenario == "sh-permutation" else set()
    assert len(perms) == len(built) and {(s, t, sig.n) for s, t, sig in perms} == built


def _count_calls_inside(monkeypatch, outer: list, inner: list) -> list:
    """The names of the ``inner`` calls made while an ``outer`` call runs,
    as they are made.  Each outer (module, name) is wrapped in that module,
    where its callers look it up; each inner (owner, name) on its owner,
    a class or a module."""
    inside, calls = [], []
    for module, name in outer:
        def counted(*args, call=getattr(module, name)):
            inside.append(1)
            try:
                return call(*args)
            finally:
                inside.pop()
        monkeypatch.setattr(module, name, counted)
    for owner, name in inner:
        def made(*args, call=getattr(owner, name), name=name):
            if inside:
                calls.append(name)
            return call(*args)
        monkeypatch.setattr(owner, name, made)
    return calls


def _count_witness_copies(monkeypatch) -> list:
    """The JetMatrix.conj_transpose calls made inside verify_witness or
    transport_check, wrapped where the replay and the session checks look
    them up."""
    from horders import session, witness

    return _count_calls_inside(
        monkeypatch, [(m, name) for name in ("verify_witness", "transport_check")
                      for m in (witness, session)],
        [(JetMatrix, "conj_transpose")])


def test_verified_corpus_witnesses_build_no_copies(monkeypatch):
    # the corpus checks vB, tB and vE of the golden corpus sessions, through
    # run_session, which looks the check functions up in the witness module
    from test_golden import CORPUS_OPS, CORPUS_SEED, load_workloads

    workloads = load_workloads(monkeypatch)
    schedule = workloads.CORPUS_SCHEDULE
    sessions = [workloads.corpus.make_session(CORPUS_SEED, i, schedule[i % len(schedule)])
                for i in range(CORPUS_OPS)]
    kept = ("verify(wB)", "transport(wB, samples=2)", "verify(wE)")
    texts = ["\n".join(line for line in s.text.splitlines()
                       if not line.startswith("check ") or any(k in line for k in kept)) + "\n"
             for s in sessions]
    texts = [t for t in texts if "check " in t]
    assert len(texts) >= 10
    from horders.session import parse_session, run_session

    parsed = [parse_session(t) for t in texts]
    copies = _count_witness_copies(monkeypatch)
    checks = [c for p in parsed for c in run_session(p).checks]
    assert {c.func for c in checks} == {"verify", "transport"}
    assert all(c.actual == "true" for c in checks), [c for c in checks if c.actual != "true"]
    assert copies == []


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_triple_entry_is_the_entry_of_the_triple_product(kind):
    rng = Random(f"triple-{kind}")
    zero = LaurentJet.zero(kind)

    def matrix(n):  # about a third of the entries exactly zero
        return JetMatrix.of([[random_jet(kind, rng) if rng.random() < 0.7 else zero
                              for _ in range(n)] for _ in range(n)])

    for n in (1, 2, 3, 4):
        for _ in range(3):
            a, b, c = matrix(n), matrix(n), matrix(n)
            abc = ref_matmul(ref_matmul(a, b), c)
            for i in range(n):
                for j in range(n):
                    assert _triple_entry(a.rows[i], b, c, j) == abc.entry(i, j)
