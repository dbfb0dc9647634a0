"""Twisted involutions, residue blocks, isotropy and distinguishing."""

import pickle
import re
import sys
import threading
import time
from math import gcd
from operator import add
from random import Random

import pytest

from horders import involutions, matrices, scalars
from horders.errors import (
    InsufficientPrecision,
    NotEpsilonHermitian,
    NotInvertible,
    NotStable,
    ScalarKindMismatch,
    SingularForm,
    SizeMismatch,
    UnsupportedFormKind,
    UnsupportedGaugeShape,
)
from horders.involutions import (
    _hermitian_blocks,
    _residue_of,
    ANISOTROPIC,
    INCONCLUSIVE,
    ISOTROPIC,
    InvolutionSpec,
    IsotropyResult,
    anisotropy,
    apply_sigma,
    diagonalize_form,
    distinguish,
    represent_norm,
    residually_anisotropic,
    residue_involution,
    wellformed,
)
from horders.matrices import JetMatrix
from horders.orders import (
    BlockOrder,
    DivisionSpec,
    Signature,
    contains,
    pattern_of,
)
from horders.scalars import (
    BASE,
    QUATERNION,
    LaurentJet,
    Q,
    Scalar,
    quadratic,
    smat_invertible,
)
from horders.witness import counterexample_pair

from test_scalars import REF_KINDS

from helpers import (
    entrywise,
    form_value,
    random_scalar,
    ref_block_least,
    ref_inverse_valuations,
    ref_represent_int,
    ref_is_eps_hermitian,
    ref_mixing_text,
    ref_solve_valuations,
    sample_block_unit,
    sample_element,
    single_entry,
    smat_conj_transpose,
    smat_identity,
    smat_is_zero,
    smat_mul,
    wellformed_by_adjugate,
    wellformed_by_elimination,
    wellformed_by_products,
    wellformed_by_quadruples,
)

_inverse_valuations = JetMatrix.inverse_valuations
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
    return tuple(tuple(Scalar.of(kind, v) if not isinstance(v, Scalar) else v
                       for v in row) for row in rows)


# ---------------------------------------------------------------------------
# tau and sigma


def test_tau_fixes_real_diagonal_matrices():
    m = diag(BASE, 1, -2, 3)
    assert m.conj_transpose() == m


def test_tau_conjugates_and_transposes():
    kind = QUATERNION
    qi = Scalar.basis(kind, 1)
    z = LaurentJet.zero(kind)
    m = JetMatrix.of([[z, LaurentJet.constant(kind, qi)], [z, z]])
    out = m.conj_transpose()
    assert out.entry(0, 1).is_zero()
    assert out.entry(1, 0) == LaurentJet.constant(kind, -qi)


def test_tau_is_an_involution_on_random_matrices():
    rng = Random(41)
    a = order(2, 1, kind=QUATERNION)
    for _ in range(100):
        x = sample_element(a, rng)
        assert x.conj_transpose().conj_transpose() == x


def test_sigma_with_identity_gauge_is_tau():
    a = order(2, 1)
    spec = InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.one(BASE)] * 3))
    rng = Random(43)
    x = sample_element(a, rng)
    assert apply_sigma(spec, x) == x.conj_transpose()


def test_sigma_on_the_bundled_gauge_stays_in_the_order():
    spec1, spec2, _, _ = counterexample_pair()
    kind = spec2.order.division.kind
    g = single_entry(kind, 6, 4, 5, LaurentJet.t_power(kind, 1))  # t*e[5,6]
    image = apply_sigma(spec2, g)
    assert contains(spec2.order, image)
    # direct evaluation: a2^-1 tau(t e[5,6]) a2 = -t e[6,5]
    expected = single_entry(kind, 6, 5, 4, LaurentJet.t_power(kind, 1, -1))
    assert image == expected


def test_gauge_inverse_at_low_precision_is_insufficient_precision():
    # a Gauss-Jordan pivot among truncated series can cancel to a series
    # known only to be zero modulo a power of t; a matrix holds exact
    # entries only, so a gauge of series known modulo t^3 (here the
    # entries' inverses) is refused when built
    t = LaurentJet.t_power
    z = LaurentJet.zero(BASE)
    gauge = JetMatrix.of([
        [t(BASE, 2, -2), z, z],
        [z, LaurentJet.from_coeffs(BASE, -1, [2, 0, 0, 1]), t(BASE, -1, -2)],
        [z, t(BASE, -1, -2), t(BASE, -1, 2)],
    ])
    with pytest.raises(InsufficientPrecision, match="matrix entries are exact"):
        entrywise(lambda e: e.inverse(3) if e.coeffs else e, gauge)
    assert gauge @ gauge.inverse() == JetMatrix.diagonal([LaurentJet.one(BASE)] * 3)


def test_sigma_with_a_truncated_gauge_is_insufficient_precision():
    # this gauge is known modulo t^2, and its exact completion
    # [[1, t], [t, 1]] has the inverse (1 - t^2)^-1 * [[1, -t], [-t, 1]],
    # which is no Laurent polynomial
    one, t = LaurentJet.one(BASE), LaurentJet.t_power(BASE, 1)
    known = LaurentJet.t_power(BASE, -1).inverse(2)  # t mod t^2
    with pytest.raises(InsufficientPrecision):
        JetMatrix.of([[one, known], [known, one]])
    spec = InvolutionSpec(order(1, 1), JetMatrix.of([[one, t], [t, one]]))
    with pytest.raises(NotInvertible, match="not a unit over the Laurent polynomials"):
        apply_sigma(spec, JetMatrix.diagonal([one] * 2))


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
    assert wellformed(InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.one(BASE)] * 2))).ok


def test_identity_gauge_fails_on_a_multi_block_order():
    # the conjugate-transpose sends a below-diagonal generator to an
    # above-diagonal position that demands positive valuation; only the
    # t-powers of a compensating gauge restore stability
    a = order(4, 2)
    diagres = wellformed(InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.one(BASE)] * 6)))
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


def _fraction_jet(kind, rng) -> LaurentJet:
    # one to three coefficients with denominators 1, 2 or 3
    return LaurentJet(kind, rng.randint(-2, 2), [
        Scalar(kind, [Q(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(kind.dim)])
        for _ in range(rng.randint(1, 3))])


def _hermitian_gauge(kind, rng, n, epsilon) -> JetMatrix:
    """A seeded gauge with tau(a) = epsilon * a: a[j][i] = epsilon *
    conj(a[i][j]) for i < j, about a third of those pairs exactly zero,
    and x + epsilon * conj(x) on the diagonal."""
    zero = LaurentJet.zero(kind)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        x = _fraction_jet(kind, rng)
        rows[i][i] = x + x.conj() if epsilon == 1 else x - x.conj()
        for j in range(i + 1, n):
            if rng.random() < 0.7:
                y = _fraction_jet(kind, rng)
                rows[i][j], rows[j][i] = y, (y.conj() if epsilon == 1 else -y.conj())
    return JetMatrix.of(rows)


def _replace_coeff(x: LaurentJet, k: int, c: Scalar) -> LaurentJet:
    return LaurentJet(x.kind, x.lowest_exp, x.coeffs[:k] + (c,) + x.coeffs[k + 1:])


def _plant(case, x: LaurentJet, rng) -> LaurentJet:
    """x with one asymmetry of the named kind planted."""
    kind = x.kind
    if case == "zero against nonzero":
        return LaurentJet.zero(kind) if x.coeffs else LaurentJet.one(kind)
    if case == "shifted lowest_exp":
        return LaurentJet(kind, x.lowest_exp + rng.choice((-1, 1)), x.coeffs)
    if case == "longer window":
        return LaurentJet(kind, x.lowest_exp, x.coeffs + (random_scalar(kind, rng, nonzero=True),))
    k = rng.choice([k for k, c in enumerate(x.coeffs) if not c.is_zero()])
    c = x.coeffs[k]
    if case == "coefficient changed":
        r = rng.randrange(kind.dim)
        return _replace_coeff(x, k, Scalar(kind, [p + (r == i) for i, p in enumerate(c.parts)]))
    if case == "conjugation sign flipped":
        return _replace_coeff(x, k, c.conj())
    # "different den": the same numerators over a denominator p times
    # larger, p a prime that does not divide them all, so nothing cancels
    g = gcd(*c.num)
    p = next(p for p in (2, 3, 5, 7) if g % p)
    return _replace_coeff(x, k, Scalar(kind, [Q(v, c.den * p) for v in c.num]))


PLANTS = ("coefficient changed", "conjugation sign flipped", "shifted lowest_exp",
          "longer window", "different den", "zero against nonzero")


def _random_sig(rng, n, most=4) -> Signature:
    """A seeded signature of size n with 1 to min(n, most) blocks."""
    cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(n, most)) - 1))
    return Signature(tuple(b - a for a, b in zip([0] + cuts, cuts + [n])))


def _is_eps_hermitian(a, epsilon, sig) -> bool:
    return _hermitian_blocks(a, epsilon, sig) is not None


def test_hermitian_check_in_place_matches_the_built_tau():
    # tau(a) = eps * a is compared entry by entry for i <= j; the reference
    # builds tau(a) and -a.  Each asymmetry is planted in one entry (i, j),
    # i <= j, and both must agree on every planted gauge.
    broken = dict.fromkeys(PLANTS, 0)
    diagonal_broken = 0
    for kind in REF_KINDS:
        rng, sig_rng = Random(f"hermitian:{kind}"), Random(f"hermitian-sig:{kind}")
        for epsilon in (1, -1):
            for _ in range(12):
                n = rng.randint(1, 4)
                a = _hermitian_gauge(kind, rng, n, epsilon)
                sig = _random_sig(sig_rng, n)
                assert _is_eps_hermitian(a, epsilon, sig) and ref_is_eps_hermitian(a, epsilon)
                assert _is_eps_hermitian(a, -epsilon, sig) == ref_is_eps_hermitian(a, -epsilon)
                for case in PLANTS:
                    needs_nonzero = case not in ("zero against nonzero", "longer window")
                    places = [(i, j) for i in range(n) for j in range(i, n)
                              if a.rows[i][j].coeffs or not needs_nonzero]
                    if not places:
                        continue
                    i, j = rng.choice(places)
                    rows = [list(row) for row in a.rows]
                    rows[i][j] = _plant(case, rows[i][j], rng)
                    b = JetMatrix.of(rows)
                    want = ref_is_eps_hermitian(b, epsilon)
                    assert _is_eps_hermitian(b, epsilon, sig) == want, (kind, epsilon, case, i, j)
                    broken[case] += not want
                    diagonal_broken += not want and i == j
                    if not want and kind.ext is None:
                        spec = InvolutionSpec(order(n, kind=kind), b, epsilon)
                        assert wellformed(spec).describe() == \
                            f"NotEpsilonHermitian: tau(a) != {epsilon:+d}*a"
    assert all(count >= 20 for count in broken.values()), broken
    assert diagonal_broken >= 20


def _sparse_hermitian_gauge(kind, rng, n, epsilon, density) -> JetMatrix:
    """``_hermitian_gauge`` with each pair off the diagonal nonzero with
    probability ``density``, and a nonzero diagonal when epsilon = 1."""
    zero = LaurentJet.zero(kind)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        x = _fraction_jet(kind, rng)
        rows[i][i] = x + x.conj() if epsilon == 1 else x - x.conj()
        if epsilon == 1 and not rows[i][i].coeffs:
            rows[i][i] = LaurentJet.t_power(kind, rng.randint(-2, 2))
        for j in range(i + 1, n):
            if rng.random() < density:
                y = _fraction_jet(kind, rng)
                rows[i][j], rows[j][i] = y, (y.conj() if epsilon == 1 else -y.conj())
    return JetMatrix.of(rows)


@pytest.mark.parametrize("kind", [BASE, QUAD, QUATERNION], ids=str)
def test_block_table_matches_the_per_block_minimum(kind):
    # one pass over i <= j fills least[b][c] and least[c][b]; the reference
    # takes one minimum over each block's slice of the rows
    rng = Random(f"blocks:{kind}")
    zero_blocks = mixing = 0
    for _ in range(120):
        n = rng.randint(1, 6)
        sig = _random_sig(rng, n)
        epsilon = rng.choice((1, -1))
        a = _sparse_hermitian_gauge(kind, rng, n, epsilon, rng.choice((0.2, 0.5, 0.9)))
        want = ref_block_least(a, sig)
        assert _hermitian_blocks(a, epsilon, sig) == tuple(map(tuple, want)), (a, sig)
        zero_blocks += any(v is None for row in want for v in row)
        mixing += any(v is not None for b, row in enumerate(want)
                      for c, v in enumerate(row) if c != b)
    assert zero_blocks >= 20 and mixing >= 20


@pytest.mark.parametrize("kind", [BASE, QUAD, QUATERNION], ids=str)
def test_mixing_text_matches_the_row_scan(kind):
    # _residue_of finds a mixing block in the table and only then scans its
    # rows; the blocks cover the rows in order, so the first entry found is
    # the one a scan of every row finds
    rng = Random(f"mixing:{kind}")
    texts = set()
    for _ in range(100):
        n = rng.randint(2, 6)
        sig = _random_sig(rng, n)
        a = _sparse_hermitian_gauge(kind, rng, n, 1, rng.choice((0.1, 0.3)))
        spec = InvolutionSpec(order(*sig.parts, kind=kind), a)
        want = ref_mixing_text(spec)
        least = _hermitian_blocks(a, 1, sig)
        if want is None:
            assert [blk.t_power for blk in _residue_of(spec, least).blocks] == [
                least[b][b] for b in range(len(sig.parts))]
            continue
        with pytest.raises(UnsupportedGaugeShape) as err:
            _residue_of(spec, least)
        assert str(err.value) == want
        texts.add(want)
    assert len(texts) >= 8, texts


def test_one_hermitian_pass_serves_every_residue_question(monkeypatch):
    passes = []
    hermitian_blocks = involutions._hermitian_blocks
    monkeypatch.setattr(involutions, "_hermitian_blocks",
                        lambda a, *args: passes.append(a) or hermitian_blocks(a, *args))
    spec1, spec2, _, _ = counterexample_pair(QUATERNION, 2, 1)
    assert wellformed(spec1).ok and residue_involution(spec1).blocks
    assert involutions.residue_isotropy(spec1)
    residually_anisotropic(spec1)
    assert distinguish(spec1, spec2).distinguished
    assert distinguish(spec2, spec1).distinguished
    assert len(passes) == 2 and passes[0] is spec1.gauge and passes[1] is spec2.gauge


def _component_matrix(kind, rng, n) -> JetMatrix:
    """A seeded n x n matrix whose nonzero pattern splits, after a random
    permutation, into components of sizes 1 to 3."""
    perm = list(range(n))
    rng.shuffle(perm)
    zero = LaurentJet.zero(kind)
    rows = [[zero] * n for _ in range(n)]
    start = 0
    while start < n:
        size = min(rng.choice((1, 1, 2, 3)), n - start)
        block = perm[start:start + size]
        for i in block:
            for j in block:
                if i == j or rng.random() < 0.8:
                    rows[i][j] = _fraction_jet(kind, rng)
        start += size
    return JetMatrix.of(rows)


@pytest.mark.parametrize("kind", [k for k in REF_KINDS if k.ext is None], ids=str)
def test_one_by_one_components_match_the_solve(kind):
    rng = Random(f"one-by-one:{kind}")
    ones = larger = 0
    for _ in range(40):
        a = _component_matrix(kind, rng, rng.randint(1, 6))
        comps = a._components()
        ones += sum(len(c) == 1 for c in comps)
        larger += sum(len(c) > 1 for c in comps)
        try:
            want = ref_solve_valuations(a)
        except NotInvertible as exc:
            with pytest.raises(NotInvertible, match=re.escape(str(exc))):
                a.inverse_valuations()
        else:
            assert a.inverse_valuations() == want
    assert ones >= 40 and larger >= 10
    # a zero diagonal entry is a singular 1 x 1 component
    x, z = _fraction_jet(kind, rng), LaurentJet.zero(kind)
    for a in (JetMatrix.diagonal([z]), JetMatrix.diagonal([x, z, x])):
        for valuations in (a.inverse_valuations, lambda: ref_solve_valuations(a)):
            with pytest.raises(NotInvertible) as info:
                valuations()
            assert str(info.value) == "gauge is not invertible over the Laurent field"


def test_a_one_by_one_zero_divisor_still_raises():
    # 1 + qi * sqrt(-1) is a zero divisor over quaternion+sqrt(-1), which is
    # M_2(Q(i)): (1 + qi * w) * (1 - qi * w) = 1 + qi^2 * w^2 = 0.  Its lowest
    # term is nonzero, so only the solve finds it singular.
    ext = QUATERNION.extended(-1)
    x = LaurentJet.constant(ext, Scalar.of(ext, 1, 0, 0, 0, 0, 1))
    for a in (JetMatrix.diagonal([x]), JetMatrix.diagonal([LaurentJet.one(ext), x])):
        assert all(len(c) == 1 for c in a._components())
        with pytest.raises(NotInvertible) as info:
            a.inverse_valuations()
        assert str(info.value) == "gauge is not invertible over the Laurent field"


@pytest.mark.parametrize("terms", [4, 16, 64])
def test_singular_hermitian_gauge_is_not_invertible(terms):
    # the entry 1 + t + ... + t^(terms-1) has no exact inverse, and at 64
    # terms it runs past the working precision; elimination is exact, so
    # the singular gauge is found singular whatever the entry's length
    a = order(1, 1)
    e = LaurentJet.from_coeffs(BASE, 0, [1] * terms)
    diagres = wellformed(InvolutionSpec(a, JetMatrix.of([[e, e], [e, e]])))
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
        u = entrywise(add, sample_block_unit(a, rng, bound=1), JetMatrix.diagonal(
            [LaurentJet.t_power(kind, 1, random_scalar(kind, rng, 1)) for _ in range(n)]))
    else:  # dense element of the order, mixing the blocks
        u = sample_element(a, rng, bound=1)
    return InvolutionSpec(a, u.conj_transpose() @ d @ u)


def test_wellformed_matches_the_generator_products():
    # every non-monomial gauge has a truncated inverse in the reference
    rng = Random(71)
    codes = set()
    for case in range(45):
        spec = _random_gauge_spec((BASE, QUAD, QUATERNION)[case % 3], rng)
        got, want = wellformed(spec), wellformed_by_products(spec)
        assert (got.code, got.detail) == (want.code, want.detail)
        codes.add(got.code)
    assert codes == {None, "NotStable"}


def _spread_gauge_spec(rng):
    # base gauges tau(u) * D * u, n <= 3, D a diagonal of +-t^e with e in
    # -9..9: wide valuation spreads leave many truncated inverses undecided
    n = rng.randint(1, 3)
    p = rng.randint(0, n - 1)
    a = order(*((p, n - p) if p else (n,)))
    d = JetMatrix.diagonal([LaurentJet.t_power(BASE, rng.randint(-9, 9), rng.choice([-1, 1]))
                            for _ in range(n)])
    shape = rng.randrange(3)
    if shape == 0:
        u = sample_block_unit(a, rng)
    elif shape == 1:
        u = entrywise(add, sample_block_unit(a, rng), JetMatrix.diagonal(
            [LaurentJet.t_power(BASE, 1, random_scalar(BASE, rng, 2)) for _ in range(n)]))
    else:
        u = sample_element(a, rng, bound=2)
    return InvolutionSpec(a, u.conj_transpose() @ d @ u)


def test_wellformed_matches_the_exact_adjugate():
    rng = Random(83)
    e = LaurentJet.from_coeffs(BASE, 0, [1, 1])
    specs = [_spread_gauge_spec(rng) for _ in range(400)]
    specs.append(InvolutionSpec(order(1, 1), JetMatrix.of([[e, e], [e, e]])))
    codes = set()
    for spec in specs:
        want = ref_inverse_valuations(spec.gauge)
        if want is None:
            with pytest.raises(NotInvertible):
                _inverse_valuations(spec.gauge)
        else:
            assert _inverse_valuations(spec.gauge) == want
        got, ref = wellformed(spec), wellformed_by_adjugate(spec)
        assert (got.code, got.detail) == (ref.code, ref.detail)
        codes.add(got.code)
    assert codes == {None, "NotStable", "NotInvertible"}
    # the exact inverse of each gauge that is a unit over the Laurent
    # polynomials has the valuations read from the integer solve
    units = 0
    for spec in specs:
        try:
            inv = spec.gauge.inverse()
        except NotInvertible:
            continue
        units += 1
        got = [[None if e.is_zero() else e.valuation() for e in row] for row in inv.rows]
        assert got == _inverse_valuations(spec.gauge)
    assert units > 100


def _chain_monomial(kind, rng, plant=0.5):
    # An order of one to four blocks, n <= 12, and a monomial gauge D on
    # it.  D is diagonal with t-powers stepping by one from block to block
    # (up to two blocks) or antidiagonal over palindromic blocks, which
    # reverses the chain; both are well formed.  With probability plant
    # one entry of D (with its mirror) moves by t^(+-1) or t^(+-2), which
    # plants a NotStable failure unless n = 1.  The exact inverse of a
    # dense gauge takes seconds at n = 10 over quaternion, so quaternion
    # orders keep n <= 6.
    blocks = rng.randint(1, 4)
    if blocks == 1:
        parts = [rng.randint(1, 12)]
    elif blocks == 2:
        parts = [rng.randint(1, 6), rng.randint(1, 6)]
    else:
        half = [rng.randint(1, 3) for _ in range((blocks + 1) // 2)]
        parts = half + half[::-1][blocks % 2:]
    if kind == QUATERNION and sum(parts) > 6:
        parts = [max(1, size // 2) for size in parts]
    a = order(*parts, kind=kind)
    n = a.sig.n
    anti = blocks > 2 or rng.random() < 0.3 and parts == parts[::-1]
    powers = [0] * n if anti else [b for b, size in enumerate(parts) for _ in range(size)]
    signs = [rng.choice([-1, 1]) for _ in range(n)]
    if anti:
        signs = [signs[min(i, n - 1 - i)] for i in range(n)]
    if rng.random() < plant:
        i, shift = rng.randrange(n), rng.choice([-2, -1, 1, 2])
        for m in {i, n - 1 - i} if anti else {i}:
            powers[m] += shift
    z = LaurentJet.zero(kind)
    return a, JetMatrix.of([[LaurentJet.t_power(kind, powers[i], signs[i])
                             if j == (n - 1 - i if anti else i) else z for j in range(n)]
                            for i in range(n)])


def _chain_gauge_spec(kind, rng):
    # tau(u) * D * u for the D of ``_chain_monomial``, well formed for a
    # unit u.  u is a block unit, or for n <= 4 a dense element.
    a, d = _chain_monomial(kind, rng)
    n = a.sig.n
    dense = n <= 4 and rng.random() < 0.5
    u = sample_element(a, rng, bound=1) if dense else sample_block_unit(a, rng, bound=1)
    return InvolutionSpec(a, u.conj_transpose() @ d @ u)


def _codes_matching_the_quadruple_loop(specs, monkeypatch) -> list:
    """The wellformed codes of specs, each with the code and detail of the
    n^4 loop.  The row-by-row pass runs exactly on the NotStable and
    NotInvertible gauges: the chain test settles every stable one, and no
    singular one has delta read off."""
    passes = []
    stable = involutions._require_stable
    monkeypatch.setattr(involutions, "_require_stable",
                        lambda spec: passes.append(spec) or stable(spec))
    codes = []
    for spec in specs:
        passes.clear()
        got, want = wellformed(spec), wellformed_by_quadruples(spec)
        assert (got.code, got.detail) == (want.code, want.detail)
        assert bool(passes) == (got.code in ("NotStable", "NotInvertible")), spec
        codes.append(got.code)
    return codes


def _elementary_product(a, rng) -> JetMatrix:
    """A unit g of the order a: a diagonal of nonzero constants times 2n
    elementary units 1 + c * t^(P[i][j] + m) * e_ij, i != j, c a nonzero
    scalar and m in {0, 1}, whose inverses 1 - c * t^(P[i][j] + m) * e_ij
    lie in the order too."""
    kind, n = a.division.kind, a.sig.n
    p = pattern_of(a.sig).entries
    one, zero = LaurentJet.one(kind), LaurentJet.zero(kind)
    g = JetMatrix.diagonal([LaurentJet.constant(kind, random_scalar(kind, rng, 2, nonzero=True))
                            for _ in range(n)])
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        x = LaurentJet.t_power(kind, p[i][j] + rng.randint(0, 1),
                               random_scalar(kind, rng, 1, nonzero=True))
        g = g @ JetMatrix.of([[x if (r, c) == (i, j) else one if r == c else zero
                               for c in range(n)] for r in range(n)])
    return g


def test_every_stable_conjugate_reads_delta_off_its_leading_matrices(monkeypatch):
    # tau(g) * D * g is stable for the stable D of ``_chain_monomial`` and
    # a unit g of the order, so by the module docstring's proof every
    # component has a unit leading matrix: delta is read off, and the chain
    # test passes with no elimination and no row-by-row pass
    rng = Random(43)
    real, sizes, passes = scalars._eliminate, [], []
    monkeypatch.setattr(matrices, "_eliminate", lambda *args: sizes.append(1) or real(*args))
    monkeypatch.setattr(scalars, "_eliminate", lambda *args: sizes.append(1) or real(*args))
    stable = involutions._require_stable
    monkeypatch.setattr(involutions, "_require_stable",
                        lambda spec: passes.append(spec) or stable(spec))
    specs = []
    for case in range(150):
        a, d = _chain_monomial((BASE, QUAD, QUATERNION)[case % 3], rng, plant=0)
        g = _elementary_product(a, rng)
        specs.append(InvolutionSpec(a, g.conj_transpose() @ d @ g))
        assert wellformed(specs[-1]).ok, specs[-1]
    assert sizes == [] and passes == []
    assert {len(spec.order.sig.parts) for spec in specs} == {1, 2, 3, 4}
    assert max(len(spec.gauge._components()[0]) for spec in specs) >= 8


def test_wellformed_matches_the_elimination_of_delta():
    # tau(g) * D * g with D from ``_chain_monomial``, half the time with an
    # entry moved (NotStable unless n = 1) and a fifth of the time with an
    # entry and its mirror zeroed (NotInvertible): sending every gauge
    # whose delta is not read off straight to the row-by-row pass gives the
    # diagnostics of eliminating delta on every gauge.  Quaternion orders
    # keep n <= 4, as the reference eliminates each dense gauge twice.
    rng = Random(47)
    codes = []
    for case in range(90):
        kind = (BASE, QUAD, QUATERNION)[case % 3]
        a, d = _chain_monomial(kind, rng)
        while kind == QUATERNION and a.sig.n > 4:
            a, d = _chain_monomial(kind, rng)
        if rng.random() < 0.2:
            rows = [list(row) for row in d.rows]
            i = rng.randrange(a.sig.n)
            j = next(j for j, x in enumerate(rows[i]) if x.coeffs)
            rows[i][j] = rows[j][i] = LaurentJet.zero(kind)
            d = JetMatrix.of(rows)
        g = _elementary_product(a, rng)
        spec = InvolutionSpec(a, g.conj_transpose() @ d @ g)
        got, want = wellformed(spec), wellformed_by_elimination(spec)
        assert (got.code, got.detail) == (want.code, want.detail), spec
        codes.append(got.code)
    assert codes.count(None) >= 20 and codes.count("NotStable") >= 20, codes
    assert codes.count("NotInvertible") >= 10, codes


def test_wellformed_matches_the_quadruple_loop(monkeypatch):
    # the chain test and the row-by-row pass against the n^4 loop over the
    # same inverse valuations, past the n <= 3 of the adjugate reference
    rng = Random(37)
    specs = [_chain_gauge_spec((BASE, quadratic(-3), QUATERNION)[case % 3], rng)
             for case in range(330)]
    codes = _codes_matching_the_quadruple_loop(specs, monkeypatch)
    assert {spec.gauge.n for spec in specs} == set(range(1, 13))
    assert {len(spec.order.sig.parts) for spec in specs} == {1, 2, 3, 4}
    assert codes.count(None) >= 50 and codes.count("NotStable") * 3 >= len(specs)


def _paired_gauge_spec(kind, rng):
    # tau(u) * D * u with D pairing the positions by the reversal or by
    # adjacent swaps: c * t^m at (i, j) and epsilon * c * t^m at (j, i),
    # c in {+-1, 2}, m in -1..2.  A fixed position carries c * t^m, or for
    # epsilon = -1 a pure unit times it (the base kind has none, so it
    # keeps epsilon = +1 there).  u is a block unit, or for n <= 4 a dense
    # element of the order, which may be singular.
    n = rng.randint(1, 4 if kind == QUATERNION else 6)
    cuts = sorted(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
    a = order(*[hi - lo for lo, hi in zip([0] + cuts, cuts + [n])], kind=kind)
    if rng.random() < 0.5:
        partner = [n - 1 - i for i in range(n)]
    else:
        partner = [i ^ 1 if i ^ 1 < n else i for i in range(n)]
    fixed = any(partner[i] == i for i in range(n))
    epsilon = 1 if kind == BASE and fixed else rng.choice([1, -1])
    rows = [[LaurentJet.zero(kind)] * n for _ in range(n)]
    for i, j in enumerate(partner):
        if i > j:
            continue
        c, m = rng.choice([-1, 1, 2]), rng.randint(-1, 2)
        if i == j:
            unit = Scalar.basis(kind, 1) if epsilon == -1 else Scalar.one(kind)
            rows[i][i] = LaurentJet.t_power(kind, m, unit.times(c))
        else:
            rows[i][j] = LaurentJet.t_power(kind, m, c)
            rows[j][i] = LaurentJet.t_power(kind, m, epsilon * c)
    dense = n <= 4 and rng.random() < 0.5
    u = sample_element(a, rng, bound=1) if dense else sample_block_unit(a, rng, bound=1)
    return InvolutionSpec(a, u.conj_transpose() @ JetMatrix.of(rows) @ u, epsilon)


def test_wellformed_matches_the_quadruple_loop_on_paired_gauges(monkeypatch):
    # epsilon = +-1, and gauges that swap positions and blocks
    rng = Random(53)
    kinds = (BASE, quadratic(-1), quadratic(-3), QUATERNION)
    specs = [_paired_gauge_spec(kinds[case % 4], rng) for case in range(400)]
    codes = _codes_matching_the_quadruple_loop(specs, monkeypatch)
    ok = [spec for spec, code in zip(specs, codes) if code is None]
    assert {spec.epsilon for spec in ok} == {1, -1}
    assert {spec.gauge.kind for spec in ok} == set(kinds)
    # on three or more blocks only a gauge that swaps blocks is stable
    assert {len(spec.order.sig.parts) for spec in ok} == {1, 2, 3, 4}
    assert codes.count("NotStable") >= 100 and len(ok) >= 50


def test_stability_of_a_dense_gauge_is_cubic():
    # I + J on block(D; 64) has no zero entry, so a check of each
    # quadruple (i, j, k, l) takes 64^4 steps, seconds; the row-by-row
    # pass takes 64^3
    one, two = LaurentJet.one(BASE), LaurentJet.constant(BASE, 2)
    gauge = JetMatrix.of([[two if i == j else one for j in range(64)] for i in range(64)])
    start = time.perf_counter()
    assert wellformed(InvolutionSpec(order(64), gauge)).ok
    assert time.perf_counter() - start < 1


def test_large_coefficients_decode_exactly():
    # With one nonzero entry per row the lowest coefficient of det is the
    # whole bound prod(row 1-norms), so a base-2^B digit even one bit
    # narrower would misread every valuation.
    big = 2 ** 40
    t = LaurentJet.t_power
    z = LaurentJet.zero(BASE)
    cases = [
        (order(1, 1), JetMatrix.diagonal([t(BASE, 0, big), t(BASE, 1, big)]),
         [[0, None], [None, -1]]),
        (order(1, 1), JetMatrix.of([[z, t(BASE, -1, big)], [t(BASE, -1, big), z]]),
         [[None, 1], [1, None]]),
        (order(1, kind=QUATERNION), JetMatrix.diagonal([t(QUATERNION, 3, big)]), [[-3]]),
        # det = P = 2^40 exactly: with X = 2^B only 2P, its balanced
        # base-X digits would read det as t - 2^40
        (order(1), JetMatrix.diagonal([t(BASE, 0, big)]), [[0]]),
    ]
    for a, gauge, want in cases:
        assert _inverse_valuations(gauge) == want
        assert ref_solve_valuations(gauge) == want  # 1 x 1 components solved too
        assert wellformed(InvolutionSpec(a, gauge)).ok
        inv = JetMatrix.of([[t(gauge.kind, -e.lowest_exp, Q(1, big)) if e.coeffs else e
                             for e in row] for row in zip(*gauge.rows)])
        assert gauge.inverse() == inv


def test_stability_needs_no_truncated_inverse(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("truncated inverse called")

    monkeypatch.setattr(JetMatrix, "inverse", refuse)
    monkeypatch.setattr(LaurentJet, "inverse", refuse)
    spec1, spec2, _, _ = counterexample_pair(QUATERNION, 2, 1)
    assert wellformed(spec1).ok and wellformed(spec2).ok
    assert residue_involution(spec1).blocks
    assert distinguish(spec1, spec2).distinguished


def test_distinguish_validates_each_spec_once(monkeypatch):
    checked = []
    require = involutions._require_wellformed

    def spy(spec):
        checked.append(spec)
        return require(spec)

    monkeypatch.setattr(involutions, "_require_wellformed", spy)
    spec1, spec2, _, _ = counterexample_pair(QUATERNION, 2, 1)
    assert distinguish(spec1, spec2).distinguished
    assert len(checked) == 2 and checked[0] is spec1 and checked[1] is spec2


def test_memo_leaves_eq_hash_repr_and_pickle_unchanged():
    spec, _, _, _ = counterexample_pair(QUAD, 1, 2)
    twin, _, _, _ = counterexample_pair(QUAD, 1, 2)
    before = (hash(spec), repr(spec), pickle.loads(pickle.dumps(spec)))
    res = residue_involution(spec)
    assert distinguish(spec, twin).verdict == INCONCLUSIVE
    assert spec == twin and twin == spec and hash(spec) == hash(twin)
    assert (hash(spec), repr(spec)) == before[:2] == (hash(twin), repr(twin))
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec == before[2] and hash(copy) == hash(spec) and repr(copy) == repr(spec)
    assert residue_involution(copy) == res == residue_involution(twin)


def _not_stable_spec():
    return InvolutionSpec(order(2), diag(BASE, 1, "t"))


def _not_hermitian_spec():
    one, z = LaurentJet.one(BASE), LaurentJet.zero(BASE)
    return InvolutionSpec(order(2), JetMatrix.of([[one, one], [z, one]]))


@pytest.mark.parametrize("make, error", [
    (_not_stable_spec, NotStable),
    (_not_hermitian_spec, NotEpsilonHermitian),
])
def test_ill_formed_spec_fails_the_same_way_every_call(make, error, monkeypatch):
    checked = []
    require = involutions._require_wellformed
    monkeypatch.setattr(involutions, "_require_wellformed",
                        lambda spec: checked.append(spec) or require(spec))
    spec = make()
    messages = []
    for _ in range(3):
        with pytest.raises(error) as info:
            residue_involution(spec)
        messages.append(str(info.value))
        assert wellformed(spec).describe() == f"{error.__name__}: {messages[0]}"
    assert len(set(messages)) == 1 and len(checked) == 6
    with pytest.raises(error, match=re.escape(messages[0])):
        distinguish(spec, spec)


def test_unsupported_shape_fails_every_call_after_one_validation(monkeypatch):
    checked = []
    require = involutions._require_wellformed
    monkeypatch.setattr(involutions, "_require_wellformed",
                        lambda spec: checked.append(spec) or require(spec))
    one, z = LaurentJet.one(BASE), LaurentJet.zero(BASE)
    spec = InvolutionSpec(order(1, 1), JetMatrix.of([[z, one], [one, z]]))
    for _ in range(3):
        with pytest.raises(UnsupportedGaugeShape, match="gauge mixes blocks at entry 1,2"):
            residue_involution(spec)
        assert wellformed(spec).ok
    assert len(checked) == 1


def test_a_spec_shared_by_eight_threads_gives_equal_results():
    spec1, spec2, _, _ = counterexample_pair(QUATERNION, 2, 1)
    fresh1, fresh2, _, _ = counterexample_pair(QUATERNION, 2, 1)
    want = {0: residue_involution(fresh1), 1: distinguish(fresh1, fresh2)}
    barrier = threading.Barrier(8)
    results = [None] * 8

    def work(i):
        barrier.wait(timeout=60)
        results[i] = residue_involution(spec1) if i % 2 == 0 else distinguish(spec1, spec2)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the memo fills too
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(results[i] == want[i % 2] for i in range(8))
    assert residue_involution(spec1) is residue_involution(spec1) == want[0]


def test_truncated_gauge_is_insufficient_precision():
    # refused when the gauge is built, before any involution is declared
    with pytest.raises(InsufficientPrecision):
        JetMatrix.diagonal([LaurentJet.from_coeffs(BASE, 0, [1, 1]).inverse(4)])


@pytest.mark.parametrize("epsilon", [1.0, -1.0])
def test_a_float_epsilon_is_refused_when_the_spec_is_built(epsilon):
    # read through operator.index, so wellformed never formats a float
    one, z = LaurentJet.one(BASE), LaurentJet.zero(BASE)
    with pytest.raises(TypeError):
        InvolutionSpec(order(2), JetMatrix.of([[one, one], [z, one]]), epsilon)


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
    res = residue_involution(InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.one(BASE)] * 3)))
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


def _hermitian(kind, rng, n):
    """A random nonzero hermitian n x n scalar matrix, entries in -1..1."""
    while True:
        rows = [[Scalar.of(kind, rng.randint(-1, 1)) if i == j else None for j in range(n)]
                for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                c = random_scalar(kind, rng, 1)
                rows[i][j], rows[j][i] = c, c.conj()
        if not smat_is_zero(rows):
            return tuple(map(tuple, rows))


@pytest.mark.parametrize("kind", [BASE, QUAD, QUATERNION], ids=str)
def test_a_wellformed_block_diagonal_gauge_has_unit_residue_blocks(kind):
    # residue_involution does not check that each block is t^m times a
    # unit block: its docstring proves well-formedness implies it.  Block
    # b is t^m_b * (H_b + t * T_b), H_b nonzero; it is well-formed iff
    # every H_b is a unit and m_2 = m_1 + 1, and then H_b is its residue.
    rng = Random(25)
    for _ in range(100):
        parts = rng.choice([(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 2)])
        m = rng.randint(-1, 1)
        powers = [m, m + rng.randint(0, 1)][:len(parts)]
        heads = [_hermitian(kind, rng, size) for size in parts]
        blocks = [JetMatrix.of([[LaurentJet(kind, e, (h, t)) for h, t in zip(hs, ts)]
                                for hs, ts in zip(head, _hermitian(kind, rng, size))])
                  for size, e, head in zip(parts, powers, heads)]
        spec = InvolutionSpec(order(*parts, kind=kind), JetMatrix.dsum(*blocks))
        units = all(smat_invertible(h) for h in heads)
        assert wellformed(spec).ok == (units and powers == list(range(m, m + len(parts))))
        if wellformed(spec).ok:
            assert [(b.size, b.t_power, b.gauge) for b in residue_involution(spec).blocks] == \
                list(zip(parts, powers, heads))


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


@pytest.mark.parametrize("kind", [BASE, QUAD, QUATERNION], ids=str)
def test_the_empty_form_is_anisotropic(kind):
    # a 0-dimensional form has no nonzero vector, isotropic or not
    assert diagonalize_form(()) == ([], ())
    assert anisotropy((), kind) == IsotropyResult(ANISOTROPIC, (0, 0))


def test_hyperbolic_form_has_an_exact_witness():
    b = smat(BASE, [[1, 0], [0, -1]])
    res = anisotropy(b, BASE)
    assert res.verdict == ISOTROPIC
    assert res.signature == (1, 1)
    assert res.witness is not None
    assert form_value(b, res.witness).is_zero()
    assert not all(x.is_zero() for x in res.witness)


def test_one_by_one_form():
    assert anisotropy(smat(BASE, [[1]]), BASE).verdict == ANISOTROPIC
    assert anisotropy(smat(BASE, [[-3]]), BASE).signature == (1, 0)


@pytest.mark.parametrize("kind", [QUAD, QUATERNION])
def test_hyperbolic_form_over_other_kinds(kind):
    b = smat(kind, [[1, 0], [0, -1]])
    res = anisotropy(b, kind)
    assert res.verdict == ISOTROPIC and res.witness is not None
    assert form_value(b, res.witness).is_zero()


def test_indefinite_form_may_lack_a_rational_witness():
    res = anisotropy(smat(BASE, [[1, 0], [0, -3]]), BASE)
    assert res.verdict == ISOTROPIC
    assert res.witness is None  # x^2 = 3 y^2 has no rational solution


def test_quaternion_norms_represent_everything_positive():
    res = anisotropy(smat(QUATERNION, [[1, 0], [0, -7]]), QUATERNION)
    assert res.verdict == ISOTROPIC and res.witness is not None
    assert form_value(smat(QUATERNION, [[1, 0], [0, -7]]), res.witness).is_zero()


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


@pytest.mark.parametrize("kind", [BASE, QUAD, QUATERNION], ids=str)
def test_diagonalize_form_raises_exactly_on_singular_forms(kind):
    # diagonalize_form does not check its diagonal for zeros: its
    # docstring proves every entry it returns is a nonzero pivot
    rng = Random(31)
    for _ in range(100):
        b = _hermitian(kind, rng, rng.randint(1, 4))
        if not smat_invertible(b):
            with pytest.raises(SingularForm):
                diagonalize_form(b)
            continue
        diag_entries, trans = diagonalize_form(b)
        assert 0 not in diag_entries
        assert smat_mul(smat_conj_transpose(trans), smat_mul(b, trans)) == \
            smat(kind, [[d if i == j else 0 for j in range(len(b))]
                        for i, d in enumerate(diag_entries)])


def test_a_form_over_an_extended_kind_is_refused_before_any_work():
    # a pivot sqrt(2) over base+sqrt(2) is conjugation-fixed but not rational
    ext = BASE.extended(2)
    for b in (smat(ext, [[Scalar.ext_gen(ext), 1], [1, 0]]), smat(ext, [[1]])):
        with pytest.raises(UnsupportedFormKind) as err:
            diagonalize_form(b)
        assert str(err.value) == "residue forms live over unextended scalar kinds"


def test_a_form_with_entries_of_mixed_kinds_is_refused():
    # each entry's coordinates were multiplied under the first entry's
    # rule: sqrt(-2) in a quadratic(-1) form read as SingularForm, and a
    # base entry ran out of coordinates (IndexError)
    root = Scalar.of(quadratic(-2), 0, 1)
    one, zero = Scalar.one(QUAD), Scalar.zero(QUAD)
    for b, text in [(((one, root), (-root, one)), "quadratic(-2)"),
                    (((one, zero), (zero, Scalar.one(BASE))), "base")]:
        with pytest.raises(ScalarKindMismatch) as err:
            diagonalize_form(b)
        assert str(err.value) == f"form entry over {text}, expected quadratic(-1)"


def test_alternating_forms_are_not_decided():
    with pytest.raises(UnsupportedFormKind):
        anisotropy(smat(BASE, [[0, 1], [-1, 0]]), BASE, epsilon=-1)


def test_non_hermitian_form_matrix_is_rejected():
    with pytest.raises(NotEpsilonHermitian):
        anisotropy(smat(BASE, [[1, 1], [0, 1]]), BASE)


def _identity_spec(n):
    return InvolutionSpec(order(n), JetMatrix.diagonal([LaurentJet.one(BASE)] * n))


@pytest.mark.parametrize("call, error, message", [
    (lambda: InvolutionSpec(order(1), JetMatrix.diagonal([LaurentJet.one(QUAD)])),
     ScalarKindMismatch, "gauge over quadratic(-1), order over base"),
    (lambda: apply_sigma(_identity_spec(2), diag(QUAD, 1, 1)),
     ScalarKindMismatch, "element over quadratic(-1), gauge over base"),
    (lambda: apply_sigma(_identity_spec(2), diag(BASE, 1, 1, 1)),
     SizeMismatch, "element is 3x3, gauge 2x2"),
    # a zero diagonal: the pivot comes from entry (2, 3), then col_swap
    (lambda: diagonalize_form(smat(BASE, [[0, 0, 0], [0, 0, 1], [0, 1, 0]])),
     SingularForm, "form vanishes on a nonzero subspace"),
    (lambda: anisotropy(smat(BASE, [[1]]), BASE.extended(-1)),
     UnsupportedFormKind, "residue forms live over unextended scalar kinds"),
    (lambda: anisotropy(smat(BASE, [[1]]), QUAD),
     ScalarKindMismatch, "form entry over base, expected quadratic(-1)"),
    # a direct call checks its form and refuses epsilon = -1
    (lambda: anisotropy(smat(BASE, [[0, 1], [-1, 0]]), BASE, epsilon=-1),
     UnsupportedFormKind, "epsilon = -1 residue forms are not decided"),
    (lambda: anisotropy(smat(BASE, [[1, 1], [0, 1]]), BASE),
     NotEpsilonHermitian, "form matrix is not hermitian"),
    # a form that is not square: a short row, then a long one
    (lambda: anisotropy(smat(BASE, [[1, 0], [0]]), BASE),
     NotEpsilonHermitian, "form matrix is not hermitian"),
    (lambda: anisotropy(smat(BASE, [[1, 0, 0], [0, 1, 0]]), BASE),
     NotEpsilonHermitian, "form matrix is not hermitian"),
    (lambda: anisotropy(smat(QUAD, [[1, Scalar.of(QUAD, 0, 1)], [Scalar.of(QUAD, 0, 1), 1]]), QUAD),
     NotEpsilonHermitian, "form matrix is not hermitian"),
    # diagonalize_form checks the form it is given: not square, then not
    # hermitian (C = [[1, -2], [0, 1]] would not diagonalise [[1, 2], [0, 1]])
    (lambda: diagonalize_form(((),)), NotEpsilonHermitian, "form matrix is not hermitian"),
    (lambda: diagonalize_form(smat(BASE, [[1], [2]])),
     NotEpsilonHermitian, "form matrix is not hermitian"),
    (lambda: diagonalize_form(smat(BASE, [[1, 2], [0, 1]])),
     NotEpsilonHermitian, "form matrix is not hermitian"),
    (lambda: diagonalize_form(smat(QUAD, [[Scalar.of(QUAD, 0, 1)]])),
     NotEpsilonHermitian, "form matrix is not hermitian"),
])
def test_involution_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("kind", [BASE, QUAD, QUATERNION], ids=str)
@pytest.mark.parametrize("rho", [Q(0), Q(-1), Q(-4, 9)])
def test_represent_norm_of_a_non_positive_rational_is_none(kind, rho):
    assert represent_norm(kind, rho) is None


def test_the_norm_search_checks_one_value_of_its_last_weight():
    # the same first solution as the full loop, up to the search cap
    rng = Random(19)
    cap = involutions._NORM_SEARCH_CAP
    targets = list(range(300)) + [rng.randint(300, cap) for _ in range(8)] + [cap - 1, cap]
    found = 0
    for weights in ((1, 1), (1, 2), (1, 3), (1, 7), (1, 1, 1, 1)):
        for target in targets:
            got = involutions._represent_int(weights, target)
            assert got == ref_represent_int(weights, target), (weights, target)
            found += got is not None
    assert 0 < found < 5 * len(targets)


def test_congruence_invariance_sampled():
    rng = Random(59)
    kinds = [BASE, QUAD, QUATERNION]
    for _ in range(100):
        kind = kinds[rng.randrange(3)]
        n = rng.randint(1, 3)
        diag_vals = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
        b = tuple(tuple(Scalar.of(kind, diag_vals[i] if i == j else 0)
                        for j in range(n)) for i in range(n))
        c = _random_invertible_smat(kind, n, rng)
        b2 = smat_mul(smat_conj_transpose(c), smat_mul(b, c))
        r1, r2 = anisotropy(b, kind), anisotropy(b2, kind)
        assert r1.verdict == r2.verdict
        assert r1.signature == r2.signature


@pytest.mark.parametrize("kind", [BASE, QUAD, quadratic(-3), QUATERNION], ids=str)
def test_every_returned_witness_annihilates_its_form(kind):
    # indefinite forms congruent to a diagonal one, n <= 4; anisotropy
    # returns its witness vector v unchecked, by the proof in its
    # docstring, so each must have v^* * b * v = 0 exactly here
    rng = Random(61)
    found = 0
    for trial in range(40):
        n = 2 + trial % 3
        diag_vals = [rng.choice([-1, 1]) * rng.randint(1, 6) for _ in range(n - 2)] + [1, -2]
        b = tuple(tuple(Scalar.of(kind, diag_vals[i] if i == j else 0)
                        for j in range(n)) for i in range(n))
        c = _random_invertible_smat(kind, n, rng)
        b = smat_mul(smat_conj_transpose(c), smat_mul(b, c))
        res = anisotropy(b, kind)
        assert res.verdict == ISOTROPIC
        if res.witness is not None:
            found += 1
            v = res.witness
            assert type(v) is tuple and len(v) == n and all(type(x) is Scalar for x in v)
            assert not all(x.is_zero() for x in v)
            assert form_value(b, v).is_zero()
    assert found >= 5  # over the base field x^2 = r*y^2 often has no rational solution


def _random_invertible_smat(kind, n, rng):
    lower = [[Scalar.of(kind, 1 if i == j else 0) for j in range(n)] for i in range(n)]
    upper = [[Scalar.of(kind, 1 if i == j else 0) for j in range(n)] for i in range(n)]
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
    assert residually_anisotropic(InvolutionSpec(a, JetMatrix.diagonal([LaurentJet.one(BASE)] * 5)))
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
    s1 = InvolutionSpec(order(1, 1), JetMatrix.diagonal([LaurentJet.one(BASE)] * 2))
    s2 = InvolutionSpec(order(2), JetMatrix.diagonal([LaurentJet.one(BASE)] * 2))
    assert distinguish(s1, s2).distinguished


def test_distinguish_is_inconclusive_on_transported_gauges():
    rng = Random(61)
    spec1, _, _, _ = counterexample_pair()
    for _ in range(10):
        u = sample_block_unit(spec1.order, rng)
        transported = InvolutionSpec(
            spec1.order, u.conj_transpose() @ spec1.gauge @ u, spec1.epsilon)
        assert wellformed(transported).ok
        assert distinguish(spec1, transported).verdict == INCONCLUSIVE
