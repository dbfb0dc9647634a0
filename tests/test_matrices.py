"""Fused jet-matrix products, and the integer image shared by
field_invertible, inverse_valuations and inverse."""

from fractions import Fraction
from math import lcm
from random import Random

import pytest

from horders import matrices, scalars
from horders.errors import NotInvertible, ScalarKindMismatch, SizeMismatch
from horders.matrices import JetMatrix, Tau, first_difference
from horders.scalars import BASE, QUATERNION, LaurentJet, Q, Scalar, ScalarKind, quadratic

from helpers import (_poly_det, entrywise, onto, random_jet, random_scalar, ref_det_valuation,
                     ref_field_invertible, ref_gauss_jordan_inverse, ref_invertible, ref_matmul,
                     rows_agree)
from test_scalars import REF_KINDS, SPLIT_KINDS, kernel_jet


def mat(*rows) -> JetMatrix:
    """Base matrix whose entries are coefficient lists from t^0 up."""
    return JetMatrix.of([[LaurentJet.from_coeffs(BASE, 0, e) for e in row] for row in rows])


ONE = JetMatrix.diagonal([LaurentJet.one(BASE)])
# [[t, 1], [3t - 2, t]]: det = (t - 1)(t - 2), so D = 2 and t = 3 is the
# only one of the points 1, ..., D + 1 where it is regular
TWO_ROOTS = mat([[0, 1], [1]], [[-2, 3], [0, 1]])
CYCLE = mat([[1], [1], []], [[], [1], [1]], [[1], [], [-1]])


@pytest.mark.parametrize("build", [lambda: JetMatrix.of([]), lambda: JetMatrix.of([[]]),
                                   lambda: JetMatrix.diagonal([]), lambda: JetMatrix.dsum()],
                         ids=["of([])", "of([[]])", "diagonal([])", "dsum()"])
def test_an_empty_matrix_is_a_size_mismatch(build):
    with pytest.raises(SizeMismatch, match="^matrix must be nonempty$"):
        build()


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
    JetMatrix.diagonal([LaurentJet.zero(BASE)]),
    # det = 0, but the blocks on {1, 3} and {2} are regular: a component
    # follows nonzero entries above and below the diagonal
    CYCLE,
    JetMatrix.of([list(col) for col in zip(*CYCLE.rows)]),
    mat([[], [1]], [[], [1, 1]]),  # a zero column inside a connected component
])
def test_singular(a):
    assert not a.field_invertible()
    assert a._leading_delta() is None
    for valuations in (a.inverse_valuations, lambda: ref_det_valuation(a)):
        with pytest.raises(NotInvertible, match="^gauge is not invertible over the Laurent field$"):
            valuations()


def test_delta_is_the_least_exponent_of_the_leibniz_determinant():
    # the exact reference always, and the leading-matrix read-off when it
    # gives a value
    rng = Random(67)
    shifted = JetMatrix.dsum(JetMatrix.diagonal([LaurentJet.t_power(BASE, 5)]), TWO_ROOTS)
    cases = [TWO_ROOTS, JetMatrix.dsum(ONE, TWO_ROOTS), shifted, CYCLE] + [
        JetMatrix.of([[random_jet(BASE, rng, lowest=-2, highest=2, bound=1)
                       for _ in range(n)] for _ in range(n)])
        for n in (rng.randint(1, 3) for _ in range(200))]
    assert shifted._leading_delta() == 5 == ref_det_valuation(shifted)
    singular = read = 0
    for a in cases:
        det = _poly_det([[{e.lowest_exp + k: c.parts[0] for k, c in enumerate(e.coeffs)}
                          for e in row] for row in a.rows])
        delta = a._leading_delta()
        if not det:
            singular += 1
            assert delta is None
            with pytest.raises(NotInvertible):
                ref_det_valuation(a)
        else:
            assert ref_det_valuation(a) == min(det)
            assert delta in (None, min(det))
            read += delta is not None
    assert 0 < singular < 100 and read >= 50, (singular, read)


def test_first_difference_of_jets_alone_is_a_size_mismatch():
    # it used to raise a bare StopIteration looking for a matrix factor
    t = LaurentJet.t_power(BASE, 1)
    with pytest.raises(SizeMismatch):
        matrices.first_difference([t], [t, t])


QUAT_ONE = JetMatrix.diagonal([LaurentJet.one(QUATERNION)])


@pytest.mark.parametrize("call, error, message", [
    (lambda: JetMatrix(BASE, ((LaurentJet.one(QUATERNION),),)),
     ScalarKindMismatch, "entry kind quaternion in a base matrix"),
    (lambda: JetMatrix.dsum(ONE, QUAT_ONE),
     ScalarKindMismatch, "direct summands must share a scalar kind"),
    (lambda: ONE @ QUAT_ONE, ScalarKindMismatch, "base vs quaternion"),
    (lambda: ONE @ TWO_ROOTS, SizeMismatch, "1x1 vs 2x2"),
    (lambda: matrices.first_difference([ONE], [TWO_ROOTS]), SizeMismatch, "1x1 vs 2x2"),
    # an empty side is refused before any work (its bound used to be a float)
    (lambda: matrices.first_difference([], [ONE]),
     SizeMismatch, "products are compared as matrices; a side has no factor"),
    (lambda: matrices.first_difference([ONE, ONE], ()),
     SizeMismatch, "products are compared as matrices; a side has no factor"),
])
def test_matrix_guards(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


def test_a_zero_row_is_singular_without_an_evaluation(monkeypatch):
    # E * diag(1, ..., 1, t) * F, E with every entry on and below the
    # diagonal 1 and F upper unipotent with drawn entries: det = t, and
    # every row has a nonzero constant term, so the leading matrix is
    # E(0) * diag(1, ..., 1, 0) * F(0), singular, and only the D + 1
    # points decide it.  t * F has a unit leading matrix, F(0), and needs
    # no point.
    rng, n = Random(71), 6
    one, zero = LaurentJet.one(BASE), LaurentJet.zero(BASE)
    e = JetMatrix.of([[one if i >= j else zero for j in range(n)] for i in range(n)])
    f = JetMatrix.of([[one if i == j else random_jet(BASE, rng, lowest=0) if i < j else zero
                       for j in range(n)] for i in range(n)])
    middle = JetMatrix.diagonal([one] * (n - 1) + [LaurentJet.t_power(BASE, 1)])
    regular = e @ middle @ f
    assert regular._components() == [list(range(n))]
    assert list(regular._readings()) == [(list(range(n)), None)]  # open
    drawn, zeros = list(regular.rows), [zero] * n
    t_f = JetMatrix.diagonal([LaurentJet.t_power(BASE, 1)] * n) @ f
    cases = [(regular, True, True),
             (JetMatrix.of([zeros] + drawn[1:]), False, False),
             (JetMatrix.of(drawn[:3] + [zeros] + drawn[4:]), False, False),
             (JetMatrix.dsum(mat([[], []], [[1], [1]]), regular), False, False),
             (t_f, True, False)]
    real, calls = matrices._bareiss, []
    monkeypatch.setattr(matrices, "_bareiss", lambda *args: calls.append(1) or real(*args))
    for a, want, evaluated in cases:
        calls.clear()
        assert a.field_invertible() is want
        assert bool(calls) is evaluated


def test_an_open_component_is_evaluated_at_d_plus_one_points():
    """[[1, 1], [1, 1 + t(t - 1)...(t - 6)]]: the leading matrix [[1, 1],
    [1, 1]] is singular but no row is zero, so the component is open, and
    D = 7 (the second row spans t^0..t^7).  det = t(t - 1)...(t - 6) is
    nonzero, yet it vanishes at 6 of the points 1, ..., D + 1 = 8, so a
    count of D - 1 points or of D // 2 reads the matrix singular.  A count
    of D still passes, as det is nonzero at t = 7: a singular leading
    matrix puts a root at t = 0, so no such det vanishes at D of the
    points (ROADMAP item 16)."""
    poly = [1]
    for root in range(7):  # times (t - root), coefficients from t^0 up
        poly = [a - root * b for a, b in zip([0] + poly, poly + [0])]
    poly[0] += 1
    a = mat([[1], [1]], [[1], poly])
    assert list(a._readings()) == [([0, 1], None)]
    assert a.field_invertible() and ref_field_invertible(a)


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_matmul_matches_the_per_scalar_reference(kind):
    rng = Random(37)
    for _ in range(12):
        n = rng.randint(1, 3)
        a, b = (JetMatrix(kind, tuple(tuple(kernel_jet(kind, rng) for _ in range(n))
                                      for _ in range(n))) for _ in range(2))
        assert a @ b == ref_matmul(a, b)


def inverse_case(kind, rng) -> JetMatrix:
    """An exact matrix of exactly zero, monomial and short polynomial
    entries; upper triangular a third of the time, so that many are units
    over the Laurent polynomials and invert exactly."""
    n = rng.randint(1, 3 if kind.ext is not None else 4)
    triangular = rng.random() < 1 / 3

    def entry(i, j):
        r = rng.random()
        if r < 0.3 or (triangular and i > j):
            return LaurentJet.zero(kind)
        width = 1 if r < 0.65 or (triangular and i == j) else rng.randint(2, 3)
        return LaurentJet(kind, rng.randint(-3, 3), [random_scalar(kind, rng, 2) for _ in range(width)])

    return JetMatrix(kind, tuple(tuple(entry(i, j) for j in range(n)) for i in range(n)))


def unit_case(kind, rng) -> JetMatrix:
    """A unit over the Laurent polynomials: L * D * U * P, with L and U
    unipotent triangular of short polynomial entries, D a diagonal of
    monomials with invertible coefficients and P a permutation, so its
    determinant is a monomial."""
    n = rng.randint(1, 3 if kind.ext is not None else 4)
    one, zero = LaurentJet.one(kind), LaurentJet.zero(kind)

    def triangular(lower):
        return JetMatrix.of([[one if i == j else zero if (i > j) != lower else
                              LaurentJet(kind, rng.randint(-1, 1), [random_scalar(kind, rng, 2)
                                                                    for _ in range(2)])
                              for j in range(n)] for i in range(n)])

    def monomial():
        while True:
            c = random_scalar(kind, rng, 2, nonzero=True)
            try:
                c.inverse()
            except NotInvertible:  # a zero divisor of a split kind
                continue
            return LaurentJet.t_power(kind, rng.randint(-2, 2), c)

    perm = list(range(n))
    rng.shuffle(perm)
    p = JetMatrix.of([[one if j == perm[i] else zero for j in range(n)] for i in range(n)])
    return triangular(True) @ JetMatrix.diagonal([monomial() for _ in range(n)]) @ \
        triangular(False) @ p


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_inverse_matches_the_gauss_jordan_reference(kind):
    # the reference truncates past a pivot that is not a monomial, so it is
    # compared up to its precision; the exact inverse is checked exactly
    rng = Random(59)
    for _ in range(16):
        a = unit_case(kind, rng)
        inv = a.inverse()
        one = JetMatrix.diagonal([LaurentJet.one(kind)] * a.n)
        assert a @ inv == one and inv @ a == one
        try:
            ref = ref_gauss_jordan_inverse(a)
        except NotInvertible:  # a zero-divisor pivot the reference cannot use
            continue
        assert rows_agree(inv.rows, ref)


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_inverse_is_exact_or_not_invertible(kind):
    # over the base kind, NotInvertible exactly when det is not a monomial
    rng = Random(59)
    for _ in range(16):
        a = inverse_case(kind, rng)
        try:
            inv = a.inverse()
        except NotInvertible:
            if kind == BASE:
                det = _poly_det([[{e.lowest_exp + k: c.parts[0] for k, c in enumerate(e.coeffs)}
                                  for e in row] for row in a.rows])
                assert len(det) != 1
            continue
        one = JetMatrix.diagonal([LaurentJet.one(kind)] * a.n)
        assert a @ inv == one and inv @ a == one


def test_a_non_monomial_determinant_is_not_invertible():
    # [[1, t], [t, 1]] has det 1 - t^2: invertible over the Laurent field,
    # but its inverse is no Laurent polynomial
    a = mat([[1], [0, 1]], [[0, 1], [1]])
    assert a.field_invertible()
    with pytest.raises(NotInvertible, match="not a unit over the Laurent polynomials"):
        a.inverse()


def test_inverse_past_a_zero_divisor_pivot():
    # (qi * sqrt(-1))^2 = 1, so e = (1 + qi*sqrt(-1)) / 2 and 1 - e are
    # orthogonal idempotents: every entry is a zero divisor, yet
    # a = 2 * [[e, 1 - e], [1 - e, e]] is a unit with inverse a / 4
    kind = QUATERNION.extended(-1)
    r = Scalar.basis(kind, 1) * Scalar.ext_gen(kind)
    p, m = (LaurentJet.constant(kind, Scalar.one(kind) + s) for s in (r, -r))
    a = JetMatrix.of([[p, m], [m, p]])
    assert a.field_invertible()
    inv = a.inverse()
    quarter = LaurentJet.constant(kind, Q(1, 4))
    assert inv == entrywise(lambda e: quarter * e, a)
    one = JetMatrix.diagonal([LaurentJet.one(kind)] * 2)
    assert a @ inv == one and inv @ a == one


# ---------------------------------------------------------------------------
# first_difference against the jet-level products


def _engine_jet(kind, rng, zero=0.3) -> LaurentJet:
    """1-3 terms from t^-2 up over mixed denominators; exactly zero with
    probability ``zero``."""
    if rng.random() < zero:
        return LaurentJet.zero(kind)
    return LaurentJet(kind, rng.randint(-2, 2), [
        Scalar(kind, [Q(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) for _ in range(kind.dim)])
        for _ in range(rng.randint(1, 3))])


def _as_matrix(f, kind, n) -> JetMatrix:
    """A factor of first_difference as the matrix it stands for, over kind."""
    if isinstance(f, Tau):
        f = f.m.conj_transpose()
    if isinstance(f, LaurentJet):
        f = JetMatrix.diagonal([f] * n)
    return onto(f, kind)


def ref_product(factors, kind, n) -> JetMatrix:
    out = JetMatrix.diagonal([LaurentJet.one(kind)] * n)
    for f in factors:
        out = out @ _as_matrix(f, kind, n)
    return out


def ref_first_difference(left, right, kind, n):
    a, b = ref_product(left, kind, n), ref_product(right, kind, n)
    return next(((i, j) for i in range(n) for j in range(n) if a.entry(i, j) != b.entry(i, j)),
                None)


def _engine_factors(kind, rng, n):
    """1-3 factors over kind or, for an extended kind, its core: matrices,
    tau of matrices and jets, at least one of them a matrix."""
    kinds = [kind] if kind.ext is None else [kind, ScalarKind(kind.core, kind.d)]
    out = []
    for _ in range(rng.randint(1, 3)):
        k = rng.choice(kinds)
        draw = rng.random()
        if draw < 0.2:
            out.append(_engine_jet(k, rng, zero=0.05))
            continue
        m = JetMatrix.of([[_engine_jet(k, rng) for _ in range(n)] for _ in range(n)])
        out.append(Tau(m) if draw < 0.45 else m)
    if not any(isinstance(f, (JetMatrix, Tau)) for f in out):
        out.append(JetMatrix.of([[_engine_jet(kind, rng) for _ in range(n)] for _ in range(n)]))
    return out


def _plant(p: JetMatrix, cells, rng) -> JetMatrix:
    """p with a nonzero jet added at each of ``cells``."""
    rows = [list(row) for row in p.rows]
    for i, j in set(cells):
        delta = LaurentJet.zero(p.kind)
        while delta.is_zero():
            delta = _engine_jet(p.kind, rng, zero=0)
        rows[i][j] = rows[i][j] + delta
    return JetMatrix.of(rows)


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_first_difference_matches_the_jet_products(kind):
    rng = Random(f"engine:{kind}")
    seen = set()
    for _ in range(10):
        n = rng.randint(1, 4 if kind.dim < 8 else 3)
        left, right = _engine_factors(kind, rng, n), _engine_factors(kind, rng, n)
        assert first_difference(left, right) == ref_first_difference(left, right, kind, n)
        product = ref_product(left, kind, n)
        i, j = rng.randrange(n), rng.randrange(n)
        plants = {"none": [], "random": [(i, j)], "last column": [(i, n - 1)],
                  "two in a row": [(i, j), (i, rng.randrange(n))],
                  "anywhere": [(rng.randrange(n), rng.randrange(n)) for _ in range(3)]}
        for name, cells in plants.items():
            planted = _plant(product, cells, rng)
            want = ref_first_difference(left, [planted], kind, n)
            assert want == (min(cells) if cells else None)
            assert first_difference(left, [planted]) == want, name
            assert first_difference([planted], left) == want, name
            seen.add(name)
    assert len(seen) == 5


def ref_image(rows, x, pad):
    """s * x^-low * entry(x) for each entry of the jet rows, in Fractions:
    s the lcm of the denominators of their coordinates, low their lowest
    exponent; each value's coordinates, then pad; None for a zero entry."""
    entries = [e for row in rows for e in row if e.coeffs]
    scale = lcm(*(Fraction(y, c.den).denominator for e in entries for c in e.coeffs
                  for y in c.num))
    low = min((e.lowest_exp for e in entries), default=0)
    return [[tuple(scale * sum(Fraction(c.num[a], c.den) * Fraction(x) ** (e.lowest_exp + k - low)
                               for k, c in enumerate(e.coeffs))
                   for a in range(e.kind.dim)) + pad if e.coeffs else None
             for e in row] for row in rows]


IMAGE_KINDS = [BASE, quadratic(-3), QUATERNION, QUATERNION.extended(3)]


@pytest.mark.parametrize("kind", IMAGE_KINDS, ids=str)
def test_the_image_is_the_scaled_rows_at_every_point(kind):
    # one _image serves the solve (each row scaled on its own), field_invertible
    # (at t = 1, ..., D + 1) and first_difference (the whole factor scaled, at
    # 2^B, a factor over the core of an extended kind padded onto it)
    rng = Random(f"image:{kind}")
    kinds = [kind] if kind.ext is None else [kind, ScalarKind(kind.core, kind.d)]
    for of in kinds:
        pad = matrices._pad(kind, of)
        for n in (1, 2, 3, 4):
            rows = [[_engine_jet(of, rng) for _ in range(n)] for _ in range(n)]
            rows[rng.randrange(n)][rng.randrange(n)] = LaurentJet.zero(of)
            # a long window with five zero coefficients inside it
            ends = [Scalar(of, [Q(rng.randint(1, 5), rng.choice((1, 2, 3))) for _ in range(of.dim)])
                    for _ in range(2)]
            rows[rng.randrange(n)][rng.randrange(n)] = LaurentJet(
                of, -1, ends[:1] + [Scalar(of, [0] * of.dim)] * 5 + ends[1:])
            # the whole matrix and each row, of different spans, at once
            bounds = [matrices._bounds(rows) + (pad,)] + [
                matrices._bounds((row,)) + (pad,) for row in rows]
            for x in (1, 2, 3, 2 ** 61):
                assert matrices._image(bounds, x) == [ref_image(rows, x, pad)] + [
                    ref_image([row], x, pad) for row in rows]


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_tau_is_read_from_the_image_of_its_matrix(kind):
    rng = Random(f"tau:{kind}")
    for n in (1, 2, 3):
        u = JetMatrix.of([[_engine_jet(kind, rng) for _ in range(n)] for _ in range(n)])
        a = JetMatrix.of([[_engine_jet(kind, rng) for _ in range(n)] for _ in range(n)])
        tu = u.conj_transpose()
        assert first_difference([Tau(u)], [tu]) is None
        assert first_difference([Tau(u), a, u], [tu, a, u]) is None
        assert first_difference([Tau(u), a], [u, a]) == ref_first_difference([tu, a], [u, a],
                                                                              kind, n)


@pytest.mark.parametrize("kind", [k for k in REF_KINDS if k.ext is not None], ids=str)
def test_operands_over_the_core_are_padded_onto_the_extended_kind(kind):
    rng = Random(f"pad:{kind}")
    core = ScalarKind(kind.core, kind.d)
    for n in (1, 2, 3):
        a = JetMatrix.of([[_engine_jet(core, rng) for _ in range(n)] for _ in range(n)])
        u = JetMatrix.of([[_engine_jet(kind, rng) for _ in range(n)] for _ in range(n)])
        c = _engine_jet(core, rng, zero=0)
        assert first_difference([a], [onto(a, kind)]) is None
        assert first_difference([c, Tau(u), a, u],
                                [c.onto(kind), u.conj_transpose(), onto(a, kind), u]) is None
    with pytest.raises(ScalarKindMismatch):
        first_difference([JetMatrix.diagonal([LaurentJet.one(kind)])],
                         [JetMatrix.diagonal([LaurentJet.one(QUATERNION if kind.core != "quat"
                                                             else BASE)])])


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("m", [1, 7, 31, 64])
def test_a_difference_at_the_largest_magnitude_is_found_in_its_column(sign, m):
    # one side is zero and the other has a single entry sign * 2^m * t^e:
    # the bound is then 2^m, so B = m + 1 and the entry's value at X is
    # 2^(B-1) * X^D, the most a digit below Y = X^(D+1) can hold
    n = 4
    zero = JetMatrix.diagonal([LaurentJet.zero(BASE)] * n)
    for i, j, e in [(0, n - 1, 3), (2, 1, 0), (n - 1, n - 1, 5)]:
        rows = [[LaurentJet.zero(BASE)] * n for _ in range(n)]
        rows[i][j] = LaurentJet.t_power(BASE, e, sign * 2 ** m)
        big = JetMatrix.of(rows)
        assert first_difference([big], [zero]) == (i, j)
        assert first_difference([zero], [big]) == (i, j)
        assert first_difference([LaurentJet.t_power(BASE, 2), big], [zero]) == (i, j)



def _by_elimination(x: LaurentJet) -> bool:
    """[x] invertible over the Laurent field, decided by elimination: the
    2 x 2 component [[x, 1], [0, 1]] = [[1, 1], [0, 1]] * diag(x, 1) is
    invertible exactly when x is, and its image is always solved."""
    one, zero = LaurentJet.one(x.kind), LaurentJet.zero(x.kind)
    return JetMatrix.of([[x, one], [zero, one]]).field_invertible()


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_a_one_by_one_component_agrees_with_elimination(kind, monkeypatch):
    # an unextended kind is a division algebra, so its 1 x 1 components
    # are decided without a solve; an extended kind can hold zero divisors
    # such as 1 + qi * sqrt(-1), so its components are eliminated unless
    # their leading coefficient is a unit
    rng = Random(f"one-by-one:{kind}")
    zero, one, t = LaurentJet.zero(kind), LaurentJet.one(kind), LaurentJet.t_power(kind, 1)
    entries = [zero, one, t] + [random_jet(kind, rng) for _ in range(12)]
    divisors = []
    if kind.ext is not None:
        root = Scalar.ext_gen(kind)
        for a in range(1, kind.core_dim) if kind.core_dim > 1 else [0]:
            e = LaurentJet.constant(kind, Scalar.one(kind) + Scalar.basis(kind, a) * root)
            divisors.append([e, e * (one + t), e + t])
    real, solves = matrices._bareiss, []
    monkeypatch.setattr(matrices, "_bareiss", lambda *args: solves.append(1) or real(*args))
    verdicts, solved = [], []  # solved: whether x took the elimination
    for x in entries + [x for triple in divisors for x in triple]:
        want = _by_elimination(x)
        lead = bool(x.coeffs) and ref_invertible(kind, [[tuple(map(Q, x.coeffs[0].parts))]])
        if len(x.coeffs) <= 1:  # a monomial c * t^k is invertible iff c is
            assert want is lead, x
        for a in (JetMatrix.diagonal([x]), JetMatrix.diagonal([x, one, x])):
            solves.clear()
            assert a.field_invertible() is want, (x, a)
            # a zero x is singular before any solve, and ends the question;
            # a unit leading coefficient proves x invertible without one
            assert bool(solves) is (kind.ext is not None and bool(x.coeffs) and not lead)
        verdicts.append(want)
        solved.append(bool(solves))
    assert True in verdicts and False in verdicts
    if kind in SPLIT_KINDS:  # (1 + i * sqrt(-1)) * (1 - i * sqrt(-1)) = 0
        assert [[_by_elimination(x) for x in triple] for triple in divisors] == [
            [False, False, True]] * len(divisors)
        assert set(solved) == {False, True}  # a zero divisor leads each triple


def test_every_solve_goes_through_one_elimination(monkeypatch):
    # a 1 x 1 component [t] and two 2 x 2 ones over base: [[1, t], [0, 1]],
    # whose leading matrix is the identity, and [[1, 1], [1, 1 + t]], whose
    # leading matrix [[1, 1], [1, 1]] is singular though det = t is not
    lead_singular = mat([[1], [1]], [[1], [1, 1]])
    a = JetMatrix.dsum(mat([[0, 1]]), mat([[1], [0, 1]], [[], [1]]), lead_singular)
    assert a._components() == [[0], [1, 2], [3, 4]]
    real, sizes = scalars._eliminate, []

    def spy(kind, rows):
        sizes.append(len(rows))
        return real(kind, rows)

    monkeypatch.setattr(matrices, "_eliminate", spy)
    monkeypatch.setattr(scalars, "_eliminate", spy)
    # delta is read off the 1 x 1 and the unit leading matrix alone; the
    # singular leading matrix gives none, with no elimination
    assert a._leading_delta() is None and sizes == []
    assert JetMatrix.dsum(mat([[0, 1]]), mat([[1], [0, 1]], [[], [1]]))._leading_delta() == 1
    assert sizes == []
    assert a.field_invertible() and sizes == []
    assert a.inverse_valuations() == [[-1, None, None, None, None], [None, 0, 1, None, None],
                                      [None, None, 0, None, None], [None] * 3 + [-1, -1],
                                      [None] * 3 + [-1, -1]]
    assert sizes == [2, 2]
    sizes.clear()
    # inverse keeps no 1 x 1 shortcut: every component is eliminated
    inv_t = LaurentJet.t_power(BASE, -1)
    assert a.inverse() == JetMatrix.dsum(
        JetMatrix.diagonal([inv_t]), mat([[1], [0, -1]], [[], [1]]),
        JetMatrix.of([[LaurentJet.from_coeffs(BASE, -1, [1, 1]), -inv_t], [-inv_t, inv_t]]))
    assert sizes == [1, 2, 2]
    sizes.clear()
    assert Scalar.of(QUATERNION, 1, 2, 0, 2).inverse() == Scalar.of(
        QUATERNION, Q(1, 9), Q(-2, 9), 0, Q(-2, 9))
    assert sizes == [1]


def _leading_case(kind, rng, n) -> JetMatrix:
    """A seeded n x n matrix for the leading-coefficient test: drawn
    entries; E * diag(t^k_i * c_i) * F for unipotent E and F, invertible
    with a leading matrix that is often singular; or one of these with a
    zero row, with a row that is a jet times another, or (over an
    extended kind) with leading coefficients 1 + e_a * root."""
    zero, one = LaurentJet.zero(kind), LaurentJet.one(kind)
    shape = rng.choice(("drawn", "factored", "factored", "zero row", "dependent", "divisor"))
    if shape == "drawn":
        rows = [[_engine_jet(kind, rng) for _ in range(n)] for _ in range(n)]
    else:
        def unipotent(lower):  # entries below (or above) the diagonal in t^0, ..., t^4
            t2 = LaurentJet.t_power(kind, 2)
            return JetMatrix.of([[one if i == j else _engine_jet(kind, rng, zero=0.4) * t2
                                  if (i > j) == lower else zero for j in range(n)]
                                 for i in range(n)])
        diag = JetMatrix.diagonal([LaurentJet.t_power(
            kind, rng.randint(-1, 2), random_scalar(kind, rng, nonzero=True)) for _ in range(n)])
        rows = [list(row) for row in (unipotent(True) @ diag @ unipotent(False)).rows]
    if shape == "zero row":
        rows[rng.randrange(n)] = [zero] * n
    elif shape == "dependent" and n > 1:
        i, j = rng.sample(range(n), 2)
        rows[i] = [_engine_jet(kind, rng, zero=0) * x for x in rows[j]]
    elif shape == "divisor" and kind.ext is not None:
        root = Scalar.ext_gen(kind)
        e = Scalar.one(kind) + Scalar.basis(kind, rng.randrange(kind.core_dim)) * root
        rows[rng.randrange(n)][rng.randrange(n)] = LaurentJet(kind, -1, [e, random_scalar(kind, rng)])
    return JetMatrix.of(rows)


@pytest.mark.parametrize("kind", REF_KINDS, ids=str)
def test_leading_coefficients_agree_with_elimination(kind):
    # delta and field invertibility read off the leading matrix agree with
    # the elimination at 2^B and the D + 1 points that every component
    # took before; both paths, and singular matrices, are drawn.  delta is
    # read off exactly when every component has a unit leading matrix (a
    # nonzero 1 x 1 over an unextended kind has one)
    rng = Random(f"leading:{kind}")
    paths, singular = {True: 0, False: 0}, 0
    for _ in range(60):
        # the D + 1 points of the reference cost dim^3 * D each, so larger
        # kinds get smaller matrices
        a = _leading_case(kind, rng, rng.randint(1, {1: 4, 2: 4, 4: 3}.get(kind.dim, 2)))
        lows = [comp_lows for _, comp_lows in a._readings()]
        for comp_lows in lows:
            paths[bool(comp_lows)] += 1
        assert a.field_invertible() is ref_field_invertible(a), a
        delta = a._leading_delta()
        assert delta == (sum(map(sum, lows)) if all(lows) else None), a
        try:
            want = ref_det_valuation(a)
        except NotInvertible:
            singular += 1
            assert delta is None, a
        else:
            assert delta in (None, want), a
    assert paths[True] >= 20 and paths[False] >= 10 and singular >= 5, (paths, singular)


def test_an_invertible_matrix_with_a_singular_leading_matrix_is_eliminated():
    # [[1, 1], [1, 1 + t]] has leading matrix [[1, 1], [1, 1]] and det = t
    a = mat([[1], [1]], [[1], [1, 1]])
    assert list(a._readings()) == [([0, 1], None)] and a._leading_delta() is None
    assert a.field_invertible() and ref_det_valuation(a) == 1
    # its lower rows scaled by t^-1 and t^3: the lows are -1 and 3, and the
    # leading matrix [[2, 1], [0, 1]] is a unit, so delta = 2 with no solve
    b = JetMatrix.of([[LaurentJet.t_power(BASE, -1, 2), LaurentJet.t_power(BASE, -1)],
                      [LaurentJet.t_power(BASE, 4), LaurentJet.t_power(BASE, 3)]])
    assert list(b._readings()) == [([0, 1], [-1, 3])]
    assert b._leading_delta() == 2 == ref_det_valuation(b)
