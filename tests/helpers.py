"""Seeded samplers and reference implementations used only by the tests."""

from itertools import permutations
from math import isqrt
from random import Random

from horders import basechange
from horders.errors import (Diagnostics, IndeterminateValuation, InsufficientPrecision,
                            NotDivisible, NotInvertible, NotPeriodic, NotStable, OK,
                            SessionSyntaxError, SessionTypeError, failure)
from horders.involutions import (InvolutionSpec, _hermitian_blocks, _maps_chain_to_dual,
                                 _require_stable)
from horders.matrices import JetMatrix, _image, _lowest_digit
from horders.orders import (BlockOrder, DivisionSpec, SemisimpleOrder, Signature,
                            check_residue, pattern_of, radical_pattern, ss_iso_decide)
from horders.scalars import BASE, LaurentJet, Q, Scalar, ScalarKind, TruncatedJet
from horders.scalars import _bareiss, _solutions, exact_int, exact_str, left_regular
from horders.session import _Cursor
from horders.witness import WitnessCheck, _is_central, _ring_checks, _shown


def random_scalar(kind: ScalarKind, rng: Random, bound: int = 3, nonzero: bool = False) -> Scalar:
    while True:
        s = Scalar(kind, tuple(Q(rng.randint(-bound, bound)) for _ in range(kind.dim)))
        if not nonzero or not s.is_zero():
            return s


def random_jet(kind: ScalarKind, rng: Random, *, lowest: int = -2, highest: int = 3,
               bound: int = 3) -> LaurentJet:
    lo = rng.randint(lowest, highest - 1)
    width = rng.randint(1, 3)
    coeffs = [random_scalar(kind, rng, bound) for _ in range(width)]
    return LaurentJet(kind, lo, coeffs)


def entrywise(fn, *mats: JetMatrix) -> JetMatrix:
    """The matrix whose (i, j) entry is fn of the (i, j) entries of mats."""
    return JetMatrix.of([[fn(*entries) for entries in zip(*rows)]
                         for rows in zip(*(m.rows for m in mats))])


def onto(x, kind: ScalarKind):
    """The JetMatrix or LaurentJet x over ``kind``, which is its kind or an
    extension of it by a root; only tests promote a whole matrix."""
    if x.kind == kind:
        return x
    if isinstance(x, JetMatrix):
        return JetMatrix(kind, tuple(tuple(e.onto(kind) for e in row) for row in x.rows))
    return x.onto(kind)


def single_entry(kind: ScalarKind, n: int, i: int, j: int, jet: LaurentJet) -> JetMatrix:
    """The n x n matrix with jet at (i, j) and exact zeros elsewhere."""
    zero = LaurentJet.zero(kind)
    return JetMatrix.of([[jet if (r, c) == (i, j) else zero for c in range(n)] for r in range(n)])


def kfold_power(x: LaurentJet, k: int) -> LaurentJet:
    """x ** k as |k| successive products of x (of x's inverse when k < 0):
    the reference for the repeated squaring in ``LaurentJet.__pow__``."""
    step = x.inverse() if k < 0 else x
    out = LaurentJet.one(x.kind)
    for _ in range(abs(k)):
        out = out * step
    return out


# ---------------------------------------------------------------------------
# Scalar matrices, tuples of rows of Scalars: references for residue forms.


def smat_identity(kind: ScalarKind, n: int) -> tuple:
    z, o = Scalar.zero(kind), Scalar.one(kind)
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def smat_mul(a: tuple, b: tuple) -> tuple:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)),
                  Scalar.zero(a[0][0].kind)) for j in range(n))
        for i in range(n))


def smat_conj_transpose(m: tuple) -> tuple:
    n = len(m)
    return tuple(tuple(m[j][i].conj() for j in range(n)) for i in range(n))


def smat_is_zero(m: tuple) -> bool:
    return all(e.is_zero() for row in m for e in row)


def form_value(b: tuple, v: tuple) -> Scalar:
    """v^* * b * v for a scalar matrix b and a vector v of scalars."""
    n = len(v)
    return sum((v[i].conj() * b[i][j] * v[j] for i in range(n) for j in range(n)),
               Scalar.zero(v[0].kind))


# ---------------------------------------------------------------------------
# Per-Scalar reference for the integer jet kernel: every partial product and
# partial sum is a reduced Scalar, as jet arithmetic was computed before.


def _window_coeff(x: LaurentJet, e: int) -> Scalar:
    if x.lowest_exp <= e < x.lowest_exp + len(x.coeffs):
        return x.coeffs[e - x.lowest_exp]
    return Scalar.zero(x.kind)


def ref_jet_add(x: LaurentJet, y: LaurentJet) -> LaurentJet:
    if not x.coeffs:
        return y
    if not y.coeffs:
        return x
    lo = min(x.lowest_exp, y.lowest_exp)
    hi = max(x.degree(), y.degree()) + 1
    return LaurentJet(x.kind, lo, [_window_coeff(x, e) + _window_coeff(y, e)
                                   for e in range(lo, hi)])


def ref_jet_mul(x: LaurentJet, y: LaurentJet) -> LaurentJet:
    if not x.coeffs or not y.coeffs:
        return LaurentJet.zero(x.kind)
    out = [Scalar.zero(x.kind)] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(y.coeffs):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b
    return LaurentJet(x.kind, x.lowest_exp + y.lowest_exp, out)


# ---------------------------------------------------------------------------
# Truncated series, for the references that invert past a pivot that is no
# monomial: a series is an exact LaurentJet or a TruncatedJet, and a sum or
# product is known as far as both operands determine it.


def _series(x) -> tuple:
    """(jet, precision) of a series; precision None when it is exact."""
    return (x.jet, x.precision) if isinstance(x, TruncatedJet) else (x, None)


def _truncated(jet: LaurentJet, precision: int | None):
    """jet known modulo t^precision; jet itself when precision is None."""
    if precision is None:
        return jet
    return TruncatedJet(LaurentJet(jet.kind, jet.lowest_exp,
                                   jet.coeffs[:max(precision - jet.lowest_exp, 0)]), precision)


def series_floor(x) -> int | None:
    """A proven lower bound for the valuation of a series: its precision
    when it is zero to that precision, None (+infinity) when exactly zero."""
    jet, precision = _series(x)
    return jet.lowest_exp if jet.coeffs else precision


def series_add(x, y):
    (a, p), (b, q) = _series(x), _series(y)
    return _truncated(ref_jet_add(a, b), q if p is None else p if q is None else min(p, q))


def series_neg(x):
    jet, precision = _series(x)
    return _truncated(-jet, precision)


def series_mul(x, y):
    """An exact zero factor gives an exact zero; otherwise the product is
    known up to the least (valuation floor of one factor + precision of
    the other)."""
    (a, p), (b, q) = _series(x), _series(y)
    if (p is None and not a.coeffs) or (q is None and not b.coeffs):
        return LaurentJet.zero(a.kind)
    known = [f + r for f, r in ((series_floor(x), q), (series_floor(y), p)) if r is not None]
    return _truncated(ref_jet_mul(a, b), min(known, default=None))


def series_conj(x):
    jet, precision = _series(x)
    return _truncated(jet.conj(), precision)


def series_inverse(x):
    """The inverse of a series of valuation v with an invertible lowest
    coefficient: exact for an exact monomial, else known modulo t^(16 - v)
    when x is exact and modulo t^(P - 2v), the most it determines, when x
    is known modulo t^P."""
    jet, precision = _series(x)
    if precision is None and len(jet.coeffs) == 1:
        return jet.inverse()
    v = jet.lowest_exp
    return jet.inverse(16 - v if precision is None else precision - 2 * v)


def jets_agree(x, y) -> bool:
    """Equality of two series up to the smaller of their precisions."""
    (a, p), (b, q) = _series(x), _series(y)
    known = q if p is None else p if q is None else min(p, q)
    d = a - b
    return not d.coeffs or (known is not None and d.lowest_exp >= known)


# A matrix of series is a list of rows: a JetMatrix holds only exact
# entries, and the references below carry truncated inverses through
# their products.

def rows_agree(a: list, b: list) -> bool:
    return all(jets_agree(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rows_tau(a: list) -> list:
    """The conjugate transpose of a matrix of series."""
    return [[series_conj(a[j][i]) for j in range(len(a))] for i in range(len(a))]


def ref_rows_mul(a: list, b: list) -> list:
    """Entry by entry, a running series sum of series products, skipping
    the exactly zero entries of a; on exact rows, the per-Scalar product."""
    rows = []
    for row in a:
        out = []
        for col in zip(*b):
            acc = LaurentJet.zero(row[0].kind)
            for x, y in zip(row, col):
                if not x.is_exact or x.coeffs:
                    acc = series_add(acc, series_mul(x, y))
            out.append(acc)
        rows.append(out)
    return rows


def ref_matmul(a: JetMatrix, b: JetMatrix) -> JetMatrix:
    return JetMatrix.of(ref_rows_mul(a.rows, b.rows))


def ref_geometric_inverse(jet: LaurentJet, precision: int) -> TruncatedJet:
    """The inverse of jet modulo t^precision as the geometric series: the
    unit part's inverse is the sum of (-z)^k, z = lead^-1 * unit - 1, one
    exact jet product per term, each cut at t^(precision + v) for v the
    valuation: the reference for the recurrence in ``LaurentJet.inverse``."""
    if not jet.coeffs:
        raise IndeterminateValuation("cannot invert zero")
    v, kind, one = jet.lowest_exp, jet.kind, LaurentJet.one(jet.kind)
    lead_inv = jet.coeffs[0].inverse()  # NotInvertible propagates
    unit_prec = precision + v  # precision of the valuation-zero unit part
    if unit_prec <= 0:
        raise InsufficientPrecision(
            f"inverse of a valuation-{v} jet modulo t^{precision} would carry no coefficients")

    def cut(x: LaurentJet) -> LaurentJet:
        return _truncated(x, unit_prec).jet

    z = LaurentJet(kind, 0, [lead_inv * c for c in jet.coeffs]) - one  # valuation >= 1
    acc = term = one
    for _ in range(unit_prec - 1):
        term = cut(-(term * z))
        if term.is_zero():
            break
        acc = acc + term
    return TruncatedJet(LaurentJet(kind, -v, [c * lead_inv for c in acc.coeffs]), precision)


def sample_element(order: BlockOrder, rng: Random, *, radical: bool = False,
                   bound: int = 3) -> JetMatrix:
    """Random element of the order (or its radical): entry (i, j) is
    t^P[i][j] * (c0 + c1*t) with scalar components drawn from [-bound, bound]."""
    kind = order.division.kind
    p = radical_pattern(order.sig) if radical else pattern_of(order.sig)
    n = order.sig.n
    return JetMatrix(kind, tuple(
        tuple(LaurentJet(kind, p.entries[i][j],
                         (random_scalar(kind, rng, bound), random_scalar(kind, rng, bound)))
              for j in range(n))
        for i in range(n)))


def sample_block_unit(order: BlockOrder, rng: Random, *, bound: int = 2) -> JetMatrix:
    """Random block-diagonal unit of the order.

    Each diagonal block is L * D * U with unipotent triangular factors
    over the coefficient order and a diagonal of invertible constants,
    so the inverse is again in the order and all arithmetic stays exact.
    """
    kind = order.division.kind
    one, zero = LaurentJet.one(kind), LaurentJet.zero(kind)
    blocks = []
    for size in order.sig.parts:
        lower = [[one if i == j else zero for j in range(size)] for i in range(size)]
        upper = [[one if i == j else zero for j in range(size)] for i in range(size)]
        for i in range(size):
            for j in range(size):
                if i != j:
                    c = random_scalar(kind, rng, bound)
                    (lower if i > j else upper)[i][j] = LaurentJet.constant(kind, c)
        diag = JetMatrix.diagonal([
            LaurentJet.constant(kind, random_scalar(kind, rng, bound, nonzero=True))
            for _ in range(size)])
        blocks.append(JetMatrix.of(lower) @ diag @ JetMatrix.of(upper))
    return JetMatrix.dsum(*blocks)


def ref_gauss_jordan_inverse(a: JetMatrix) -> list:
    """Gauss-Jordan over the Laurent field; left row operations only: the
    reference for ``JetMatrix.inverse``, which solves on integers instead.
    The rows of a^-1, truncated where a pivot is not a monomial.

    Pivots need a determinate valuation and an invertible leading
    coefficient (extended kinds can contain zero divisors).  Series
    that are zero to their precision are never pivots; a column left
    without a pivot raises InsufficientPrecision if it holds such an
    entry, unless a is singular over the Laurent field, and NotInvertible
    otherwise.
    """
    n = a.n
    work = [list(row) + [LaurentJet.one(a.kind) if i == j else LaurentJet.zero(a.kind)
                         for j in range(n)] for i, row in enumerate(a.rows)]
    for col in range(n):
        best, best_inv, vague = None, None, False
        for r in range(col, n):
            floor = series_floor(work[r][col])
            if not _series(work[r][col])[0].coeffs:
                vague = vague or floor is not None
                continue
            if best is not None and floor >= series_floor(work[best][col]):
                continue
            try:
                inv = series_inverse(work[r][col])
            except NotInvertible:
                continue
            best, best_inv = r, inv
        if best is None and vague and a.field_invertible():
            raise InsufficientPrecision(
                f"no usable pivot in column {col}: an entry is zero only to its precision")
        if best is None:
            raise NotInvertible(f"no usable pivot in column {col}")
        work[col], work[best] = work[best], work[col]
        work[col] = [series_mul(best_inv, e) for e in work[col]]
        for r in range(n):
            f = work[r][col]
            if r == col or not _series(f)[0].coeffs:
                continue
            work[r] = [series_add(e, series_neg(series_mul(f, p))) for e, p in zip(work[r], work[col])]
    return [row[n:] for row in work]


def ref_is_eps_hermitian(a: JetMatrix, epsilon: int) -> bool:
    """tau(a) = epsilon * a with tau(a) and -a built as matrices: the
    reference for the in-place comparison of ``wellformed``."""
    return a.conj_transpose().agrees(a if epsilon == 1 else -a)


def ref_block_least(a: JetMatrix, sig: Signature) -> list[list[int | None]]:
    """The least valuation of a nonzero entry of each block (b, c) of a,
    None for a zero block, one minimum over each block's slice of the
    rows: the reference for the block table of the hermitian check."""
    spans = [(start, start + size) for start, size in zip(sig.block_starts(), sig.parts)]
    return [[min([e.lowest_exp for row in a.rows[b_lo:b_hi] for e in row[c_lo:c_hi]
                  if e.coeffs], default=None) for c_lo, c_hi in spans] for b_lo, b_hi in spans]


def ref_mixing_text(spec: InvolutionSpec) -> str | None:
    """The ``UnsupportedGaugeShape`` text of a gauge that mixes blocks,
    None for a block-diagonal one, from a scan of the rows in order: the
    first nonzero entry outside the diagonal block of its row."""
    sig, rows = spec.order.sig, spec.gauge.rows
    for start, size in zip(sig.block_starts(), sig.parts):
        for i in range(start, start + size):
            j = next((j for j, x in enumerate(rows[i])
                      if x.coeffs and not start <= j < start + size), None)
            if j is not None:
                return f"gauge mixes blocks at entry {i + 1},{j + 1}"
    return None


def ref_solve_valuations(a: JetMatrix) -> list[list[int | None]]:
    """``JetMatrix.inverse_valuations`` with every component solved, 1 x 1
    ones included: the reference for reading v(x^-1) = -v(x) off a 1 x 1
    component over an unextended kind."""
    dim = a.kind.dim
    out: list[list[int | None]] = [[None] * a.n for _ in range(a.n)]
    for comp in a._components():
        bounds, bits, det, rows = a._solve(comp)
        vdet = _lowest_digit(det, bits)
        for j, (_, _, low, *_), y in zip(comp, bounds, _solutions(rows, det)):
            for kk, k in enumerate(comp):
                digits = [_lowest_digit(x, bits) for x in y[kk * dim:(kk + 1) * dim] if x]
                if digits:
                    out[k][j] = min(digits) - vdet - low
    return out


def ref_det_valuation(a: JetMatrix) -> int:
    """delta = v(det a), the valuation of the Dieudonne determinant over
    the Laurent field, summed over the components, each eliminated at
    X = 2^B; raises NotInvertible for a singular a.  The reference for
    ``JetMatrix._leading_delta``, exact on every component.

    The lowest base-X digit of the pivot is v(det M) for the left-regular
    image M of the scaled a', and v(det M) = dim * delta' for delta' the
    valuation of the Dieudonne determinant of a': a -> det M is
    multiplicative, is 1 on elementary matrices, and on diag(d, 1, ...,
    1), d = t^v * u with u a unit of D[[t]], is t^(dim * v) times a unit
    of Q[[t]].  Row i of a' is s_i * t^-low_i times row i of a, so the
    component adds v(det M) / dim + sum(low_i) to delta."""
    total = 0
    for comp in a._components():
        bounds, bits, det, _ = a._solve(comp)
        total += _lowest_digit(det, bits) // a.kind.dim + sum(low for _, _, low, *_ in bounds)
    return total


def ref_field_invertible(a: JetMatrix) -> bool:
    """``JetMatrix.field_invertible`` with every component evaluated at
    t = 1, ..., D + 1, D = dim * the sum of its row spans, one
    elimination each: the reference for the leading-coefficient test."""
    for comp in a._components():
        bounds = a._row_bounds(comp)
        _, _, _, spans, sizes, _ = zip(*bounds)
        if not all(sizes):
            return False
        points = a.kind.dim * sum(spans) + 1
        if not any(_bareiss(m := left_regular(a.kind, [r[0] for r in _image(bounds, x)]), len(m))
                   for x in range(1, points + 1)):
            return False
    return True


def wellformed_by_elimination(spec: InvolutionSpec) -> Diagnostics:
    """``wellformed`` with delta eliminated on every gauge: the hermitian
    check, ``ref_det_valuation``, the chain test, and the row-by-row pass
    only on a gauge the chain test refuses.  The reference for reading
    delta off the leading coefficients and sending every other gauge
    straight to the row-by-row pass."""
    a, sig = spec.gauge, spec.order.sig
    least = _hermitian_blocks(a, spec.epsilon, sig)
    if least is None:
        return failure("NotEpsilonHermitian", f"tau(a) != {spec.epsilon:+d}*a")
    try:
        if not _maps_chain_to_dual(sig, least, ref_det_valuation(a)):
            _require_stable(spec)
    except (NotInvertible, NotStable) as exc:
        return failure(type(exc).__name__, str(exc))
    return OK


def wellformed_by_products(spec: InvolutionSpec) -> Diagnostics:
    """Reference for ``wellformed``: applies the involution to every
    order generator with matrix products, checks the image against the
    order pattern and checks that applying it twice gives the generator
    back.  First failure wins."""
    a = spec.gauge
    if not ref_is_eps_hermitian(a, spec.epsilon):
        return failure("NotEpsilonHermitian", f"tau(a) != {spec.epsilon:+d}*a")
    try:
        ainv = ref_gauss_jordan_inverse(a)
    except NotInvertible as exc:
        return failure("NotInvertible", f"gauge is not invertible over the Laurent field: {exc}")
    p = pattern_of(spec.order.sig).entries
    kind = a.kind
    n = a.n
    for i in range(n):
        for j in range(n):
            g = single_entry(kind, n, i, j, LaurentJet.t_power(kind, p[i][j]))
            image = ref_rows_mul(ref_rows_mul(ainv, g.conj_transpose().rows), a.rows)
            # as meets_pattern: an entry zero to its precision is read at that bound
            floors = [[series_floor(e) for e in row] for row in image]
            bad = next(((k, l) for k in range(n) for l in range(n)
                        if floors[k][l] is not None and floors[k][l] < p[k][l]), None)
            if bad is not None:
                return failure(
                    "NotStable",
                    f"generator t^{p[i][j]}*e[{i + 1},{j + 1}] leaves the order "
                    f"at entry {bad[0] + 1},{bad[1] + 1}")
            twice = ref_rows_mul(ref_rows_mul(ainv, rows_tau(image)), a.rows)
            if not rows_agree(twice, g.rows):
                return failure("NotInvolutive", f"sigma^2 != id on generator e[{i + 1},{j + 1}]")
    return OK


# ---------------------------------------------------------------------------
# Exact adjugate reference for gauge inverses over the base kind: Laurent
# polynomials as {exponent: Fraction} dicts, determinant and cofactors by
# the Leibniz formula.


def _poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e, x in p.items():
        for f, y in q.items():
            out[e + f] = out.get(e + f, 0) + x * y
    return {e: x for e, x in out.items() if x}


def _poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, x in q.items():
        out[e] = out.get(e, 0) + x
    return {e: x for e, x in out.items() if x}


def _poly_det(m: list[list[dict]]) -> dict:
    total: dict = {}
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(m)) for j in range(i + 1, len(m)))
        term = {0: Q(-1) ** inversions}
        for i, j in enumerate(perm):
            term = _poly_mul(term, m[i][j])
        total = _poly_add(total, term)
    return total


def ref_inverse_valuations(a: JetMatrix) -> list[list[int | None]] | None:
    """v(a^-1[k][j]) = v(adj(a)[k][j]) - v(det a) for an exact base-kind
    gauge of size at most 3; None for an exactly zero entry, and None in
    place of the matrix when a is singular."""
    assert a.kind == BASE and a.n <= 3
    m = [[{e.lowest_exp + k: c.parts[0] for k, c in enumerate(e.coeffs) if not c.is_zero()}
          for e in row] for row in a.rows]
    det = _poly_det(m)
    if not det:
        return None
    n = a.n

    def cofactor(i, j):
        minor = [[m[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
        return _poly_det(minor) if minor else {0: Q(1)}

    # adj(a)[k][j] is the (j, k) cofactor
    adj = [[cofactor(j, k) for j in range(n)] for k in range(n)]
    return [[min(c) - min(det) if c else None for c in row] for row in adj]


def wellformed_by_adjugate(spec: InvolutionSpec) -> Diagnostics:
    """Reference for ``wellformed`` on base-kind gauges of size at most 3:
    the valuation inequality of the involutions module, fed with the
    adjugate valuations above."""
    a = spec.gauge
    if not ref_is_eps_hermitian(a, spec.epsilon):
        return failure("NotEpsilonHermitian", f"tau(a) != {spec.epsilon:+d}*a")
    vinv = ref_inverse_valuations(a)
    if vinv is None:
        return failure("NotInvertible", "gauge is not invertible over the Laurent field")
    return stability_by_quadruples(spec, vinv)


def wellformed_by_quadruples(spec: InvolutionSpec) -> Diagnostics:
    """Reference for ``wellformed`` at any size: the built tau(a) compared
    with epsilon * a, then the library's ``inverse_valuations`` fed to the
    quadruple loop below."""
    a = spec.gauge
    if not ref_is_eps_hermitian(a, spec.epsilon):
        return failure("NotEpsilonHermitian", f"tau(a) != {spec.epsilon:+d}*a")
    try:
        vinv = a.inverse_valuations()
    except NotInvertible as exc:
        return failure("NotInvertible", str(exc))
    return stability_by_quadruples(spec, vinv)


def stability_by_quadruples(spec: InvolutionSpec, vinv: list) -> Diagnostics:
    """The valuation inequality of the involutions module, checked one
    quadruple (i, j, k, l) at a time in n^4 steps, given v(a^-1) as
    ``vinv`` (None for an exactly zero entry): the reference for the
    row-by-row min-plus pass of ``wellformed``."""
    p = pattern_of(spec.order.sig).entries
    va = [[e.valuation_floor() for e in row] for row in spec.gauge.rows]
    n = spec.gauge.n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if None in (vinv[k][j], va[i][l]):
                        continue
                    if vinv[k][j] + p[i][j] + va[i][l] < p[k][l]:
                        return failure(
                            "NotStable", f"generator t^{p[i][j]}*e[{i + 1},{j + 1}] leaves the "
                            f"order at entry {k + 1},{l + 1}")
    return OK


def ref_represent_int(weights: tuple[int, ...], target: int) -> tuple[int, ...] | None:
    """The recursion ``involutions._represent_int`` replaced: every value of
    every weight, the last one included, largest first; the reference for
    its one check at the last weight."""
    if not weights:
        return () if target == 0 else None
    w = weights[0]
    a = isqrt(target // w)
    while a >= 0:
        rest = ref_represent_int(weights[1:], target - w * a * a)
        if rest is not None:
            return (a,) + rest
        a -= 1
    return None


def transport_by_samples(w: WitnessCheck, samples: int = 50, seed: int = 0) -> Diagnostics:
    """Reference for ``transport_check``: the inverse-free identity
    tau(x) * W = W * sigma1(x), W = tau(u) * a2 * u, on every pattern
    generator and then on ``samples`` seeded elements of the order.  Only
    the verdict and code are comparable; the details differ."""
    kind = w._work_kind()
    u, a1, a2 = (onto(x, kind) for x in (w.u, w.spec1.gauge, w.spec2.gauge))
    try:
        a1_inv = ref_gauss_jordan_inverse(a1)
    except NotInvertible as exc:
        return failure("NotInvertible", f"first gauge: {exc}")
    try:
        ref_gauss_jordan_inverse(u)
    except NotInvertible as exc:
        return failure("NotInvertible", f"u: {exc}")
    big = (u.conj_transpose() @ a2 @ u).rows

    def holds(x: JetMatrix) -> bool:
        tx = x.conj_transpose().rows
        return rows_agree(ref_rows_mul(tx, big),
                          ref_rows_mul(big, ref_rows_mul(ref_rows_mul(a1_inv, tx), a1.rows)))

    order = w.spec1.order
    pattern = pattern_of(order.sig)
    n = order.sig.n
    for i in range(n):
        for j in range(n):
            g = single_entry(kind, n, i, j, LaurentJet.t_power(kind, pattern.entries[i][j]))
            if not holds(g):
                return failure(
                    "TransportFailed",
                    f"conjugation fails on generator t^{pattern.entries[i][j]}*e[{i + 1},{j + 1}]")
    rng = Random(seed)
    for k in range(samples):
        if not holds(onto(sample_element(order, rng), kind)):
            return failure("TransportFailed", f"conjugation fails on sample #{k + 1}")
    return OK


# ---------------------------------------------------------------------------
# Jet-product reference for the packed witness identities: tau(u) * a2 * u
# built as a matrix of jets and compared entry by entry, as the witness
# checks decided it before they packed their operands into integers.


def promoted_operands(w: WitnessCheck) -> tuple:
    """u, a1, a2 and alpha, each as a copy over the working kind when it
    lives over the division kind."""
    kind = w._work_kind()
    return tuple(onto(x, kind) for x in (w.u, w.spec1.gauge, w.spec2.gauge, w.alpha))


def ref_identity_check(w: WitnessCheck) -> Diagnostics:
    """The identity step of ``verify_witness``: OK, or IdentityMismatch at
    the first differing entry with both jets in the detail, each printed
    as ``witness._shown`` prints it (its own test pins that bound)."""
    u, a1, a2, alpha = promoted_operands(w)
    lhs = u.conj_transpose() @ a2 @ u
    rhs = entrywise(lambda e: alpha * e, a1)
    bad = next(((i, j) for i in range(u.n) for j in range(u.n)
                if lhs.entry(i, j) != rhs.entry(i, j)), None)
    if bad is None:
        return OK
    return failure(
        "IdentityMismatch",
        f"tau(u)*a2*u != alpha*a1 at entry {bad[0] + 1},{bad[1] + 1}: "
        f"{_shown(lhs.entry(*bad))} vs {_shown(rhs.entry(*bad))}")


def ref_verify_witness(w: WitnessCheck) -> Diagnostics:
    """``verify_witness`` with every check asked in turn: the identity,
    then invertibility of u over the Laurent field, then (base and etale
    modes) that u is a unit of the order, then that alpha is a unit.  So
    u is asked over the field whenever the identity holds, as the generic
    fibre did before a1 was asked in its place."""
    diag = ref_identity_check(w)
    if not diag.ok:
        return diag
    u, _, _, alpha = promoted_operands(w)
    if not u.field_invertible():
        return failure("NotInvertible", "u is not invertible over the Laurent field")
    return _ring_checks(w, u, alpha)


def ref_transport_check(w: WitnessCheck) -> Diagnostics:
    """``transport_check`` with W = tau(u) * a2 * u as a matrix of jets and
    N * W = m * a1 compared entry by entry."""
    u, a1, a2, _ = promoted_operands(w)
    if not a1.field_invertible():
        return failure("NotInvertible", "first gauge is not invertible over the Laurent field")
    if not u.field_invertible():
        return failure("NotInvertible", "u is not invertible over the Laurent field")
    big = u.conj_transpose() @ a2 @ u
    cells = [(i, j) for i in range(u.n) for j in range(u.n)]
    p, q = next((i, j) for i, j in cells if not a1.entry(i, j).is_zero())
    abar = a1.entry(p, q).conj()
    norm = a1.entry(p, q) * abar
    m = big.entry(p, q) * abar
    if not all(_is_central(c) for c in m.coeffs):
        bad = (p, q)
    else:
        bad = next(((i, j) for i, j in cells
                    if norm * big.entry(i, j) != m * a1.entry(i, j)), None)
    if bad is not None:
        return failure(
            "TransportFailed",
            f"tau(u)*a2*u is not a central multiple of a1 at entry {bad[0] + 1},{bad[1] + 1}")
    return OK


# ---------------------------------------------------------------------------
# Fraction-coordinate reference for the integer scalar core: scalars as
# tuples of Fractions over the rational basis, as they were stored before.


def ref_mul(kind: ScalarKind, a: tuple, b: tuple) -> tuple:
    """Product of two Fraction coordinate tuples over ``kind``."""
    m = kind.core_dim

    def core(x, y):
        if kind.core == "base":
            return (x[0] * y[0],)
        if kind.core == "quad":
            return (x[0] * y[0] + kind.d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])
        w1, x1, y1, z1 = x
        w2, x2, y2, z2 = y
        return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 + y1 * w2 + z1 * x2 - x1 * z2,
                w1 * z2 + z1 * w2 + x1 * y2 - y1 * x2)

    if kind.ext is None:
        return core(a, b)
    lo1, lo2 = core(a[:m], b[:m]), core(a[m:], b[m:])
    hi1, hi2 = core(a[:m], b[m:]), core(a[m:], b[:m])
    return (tuple(x + kind.ext * y for x, y in zip(lo1, lo2))
            + tuple(x + y for x, y in zip(hi1, hi2)))


def ref_conj(kind: ScalarKind, a: tuple) -> tuple:
    m = kind.core_dim
    if kind.core == "base":
        return a
    return tuple(x if i % m == 0 else -x for i, x in enumerate(a))


def ref_norm(kind: ScalarKind, a: tuple) -> Q:
    """a * conj(a) on an unextended kind, read off the product."""
    return ref_mul(kind, a, ref_conj(kind, a))[0]


def ref_left_regular(kind: ScalarKind, rows) -> list[list[Q]]:
    """Rational matrix of x -> m * x, m a matrix of Fraction tuples."""
    dim = kind.dim
    unit = [tuple(Q(int(i == a)) for i in range(dim)) for a in range(dim)]
    n = len(rows) * dim
    out = [[Q(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, s in enumerate(row):
            for c in range(dim):
                for r, x in enumerate(ref_mul(kind, s, unit[c])):
                    out[i * dim + r][j * dim + c] += x
    return out


def solve_rational(mat: list[list[Q]], rhs: list[Q]) -> list[Q] | None:
    """Gauss-Jordan elimination over the rationals; None if singular."""
    n = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = Q(1) / a[col][col]
        a[col] = [v * inv for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w if w else v for v, w in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def ref_inverse(kind: ScalarKind, a: tuple) -> tuple | None:
    """Inverse of a Fraction tuple, None for zero and zero divisors."""
    sol = solve_rational(ref_left_regular(kind, ((a,),)), [Q(1)] + [Q(0)] * (kind.dim - 1))
    return None if sol is None else tuple(sol)


def ref_invertible(kind: ScalarKind, rows) -> bool:
    reg = ref_left_regular(kind, rows)
    return solve_rational(reg, [Q(0)] * len(reg)) is not None


def ref_str(kind: ScalarKind, a: tuple) -> str:
    """The text of a scalar, written from its Fraction coordinates."""
    def core(parts):
        units = {"base": [""], "quad": ["", f"sqrt({kind.d})"],
                 "quat": ["", "qi", "qj", "qk"]}[kind.core]
        pieces = []
        for coeff, unit in zip(parts, units):
            if coeff == 0:
                continue
            if unit == "":
                pieces.append(str(coeff))
            elif coeff in (1, -1):
                pieces.append(unit if coeff == 1 else f"-{unit}")
            else:
                pieces.append(f"{coeff}*{unit}")
        if not pieces:
            return "0"
        return pieces[0] + "".join(
            f" - {p[1:]}" if p.startswith("-") else f" + {p}" for p in pieces[1:])

    m = kind.core_dim
    if kind.ext is None or not any(a[m:]):
        return core(a[:m])
    hi = core(a[m:])
    hi = f"sqrt({kind.ext})" if hi == "1" else f"({hi})*sqrt({kind.ext})"
    return hi if not any(a[:m]) else f"{core(a[:m])} + {hi}"


# ---------------------------------------------------------------------------
# Record-based reference for becomes_iso_after_sh.


def ref_becomes_iso_after_sh(a: SemisimpleOrder, b: SemisimpleOrder) -> bool:
    """The record-based definition: push every component to a block order
    over one split division datum, then compare the products."""
    split = DivisionSpec("_split", BASE, 1, 1)

    def pushed(ss: SemisimpleOrder) -> SemisimpleOrder:
        return SemisimpleOrder(tuple(
            BlockOrder(split, basechange.sh_signature(c.sig, c.division.s, c.division.t))
            for c in ss.components))

    return ss_iso_decide(pushed(a), pushed(b))


# ---------------------------------------------------------------------------
# Per-element references for the cyclic normal form and descent.


def ref_cyclic_normal_form(parts) -> tuple[int, ...]:
    """The least of the rotations at every position of the least part."""
    parts = tuple(parts)
    if not parts:
        raise ValueError("empty tuple has no rotations")
    least = min(parts)
    return min(parts[k:] + parts[:k] for k, p in enumerate(parts) if p == least)


def ref_descend_signature(parts: tuple[int, ...], s: int, t: int) -> Signature:
    """Descent tested part by part: the reference for
    ``basechange.descend_signature``, with the same errors in the same
    order."""
    check_residue(s, t)
    if any(p % s for p in parts):
        raise NotDivisible(f"parts {parts} are not all divisible by s={s}")
    u = len(parts)
    if u % t:
        raise NotPeriodic(f"length {u} is not divisible by t={t}")
    r = u // t
    if any(parts[i] != parts[(i + r) % u] for i in range(u)):
        raise NotPeriodic(f"{parts} is not {t}-periodic up to rotation")
    return Signature(ref_cyclic_normal_form(p // s for p in parts[:r]))


# ---------------------------------------------------------------------------
# Brute-force reference for the base-change pattern identity: build the
# tensored (s*t*n)^2 pattern, conjugate it entry by entry and compare.


def ref_sh_permutation(s: int, t: int, sig: Signature) -> tuple[int, ...]:
    """The index map (i, j, k) -> (i, k, j) evaluated position by position:
    the reference for ``basechange.sh_permutation``."""
    n = sig.n
    return tuple([i + s * k + s * n * j for k in range(n) for j in range(t) for i in range(s)])


def ref_verify_sh_pattern(s: int, t: int, sig: Signature) -> bool:
    n = sig.n
    big = s * t * n
    inner = Signature((s,) * t)
    cell_order = pattern_of(inner).entries
    cell_radical = radical_pattern(inner).entries
    base = pattern_of(sig).entries
    st = s * t

    tensored = [[0] * big for _ in range(big)]
    for k in range(n):
        for l in range(n):
            cell = cell_radical if base[k][l] else cell_order
            for a in range(st):
                for b in range(st):
                    tensored[k * st + a][l * st + b] = cell[a][b]

    perm = basechange.sh_permutation(s, t, sig)  # looked up per call, so tests can patch it
    conjugated = [[0] * big for _ in range(big)]
    for x in range(big):
        px = perm[x]
        for y in range(big):
            conjugated[px][perm[y]] = tensored[x][y]

    target = pattern_of(basechange.sh_signature(sig, s, t)).entries
    return all(tuple(row) == trow for row, trow in zip(conjugated, target))


# ---------------------------------------------------------------------------
# Jet-per-atom reference for the session literal evaluator: every number,
# ``t``, unit and root is its own LaurentJet, and a sum is a running jet sum.


def ref_parse_expr(cur: _Cursor, kind: ScalarKind) -> LaurentJet:
    value = ref_parse_term(cur, kind)
    while True:
        if cur.accept("+"):
            value = value + ref_parse_term(cur, kind)
        elif cur.accept("-"):
            value = value - ref_parse_term(cur, kind)
        else:
            return value


def ref_parse_term(cur: _Cursor, kind: ScalarKind) -> LaurentJet:
    value = ref_parse_factor(cur, kind)
    while cur.accept("*"):
        value = value * ref_parse_factor(cur, kind)
    return value


def ref_parse_factor(cur: _Cursor, kind: ScalarKind) -> LaurentJet:
    if cur.accept("-"):
        return -ref_parse_factor(cur, kind)
    value = ref_parse_atom(cur, kind)
    caret = cur.pos
    if cur.accept("^"):
        k = cur.signed_int()
        if k < 0 and len(value.coeffs) > 1:
            raise SessionTypeError(
                f"power {exact_str(k)} of a value that is not a monomial: entries are exact "
                "Laurent polynomials; multiply u by the denominator and alpha by its norm",
                cur.line, cur.col(caret))
        try:
            return value ** k
        except (IndeterminateValuation, NotInvertible) as exc:
            # an exact zero: "cannot invert zero"; a zero divisor: the scalar's message
            raise SessionTypeError(f"power {exact_str(k)} of a value with no inverse: {exc}",
                                   cur.line, cur.col(caret)) from None
    return value


def ref_parse_atom(cur: _Cursor, kind: ScalarKind) -> LaurentJet:
    at = cur.pos
    tok = cur.peek()
    if not tok:
        raise SessionSyntaxError("unexpected end of line", cur.line)
    cur.pos += 1
    if tok.isdigit():
        num = exact_int(tok)
        if cur.accept("/"):
            den = cur.expect_int()
            if den == 0:
                raise SessionTypeError(
                    f"zero denominator in {exact_str(num)}/0", cur.line, cur.col(cur.pos - 1))
            return LaurentJet.constant(kind, Q(num, den))
        return LaurentJet.constant(kind, num)
    if tok == "(":
        value = ref_parse_expr(cur, kind)
        cur.expect(")")
        return value
    if tok == "t":
        return LaurentJet.t_power(kind, 1)
    if tok in ("qi", "qj", "qk"):
        if kind.core != "quat":
            raise SessionTypeError(f"{tok} is not a scalar of kind {kind}", cur.line, cur.col(at))
        index = {"qi": 1, "qj": 2, "qk": 3}[tok]
        return LaurentJet.constant(kind, Scalar.basis(kind, index))
    if tok == "sqrt":
        cur.expect("(")
        d = cur.signed_int()
        cur.expect(")")
        if kind.ext == d:
            return LaurentJet.constant(kind, Scalar.ext_gen(kind))
        if kind.core == "quad" and kind.d == d:
            return LaurentJet.constant(kind, Scalar.basis(kind, 1))
        raise SessionTypeError(
            f"sqrt({exact_str(d)}) is not a scalar of kind {kind}", cur.line, cur.col(at))
    raise SessionSyntaxError(f"unexpected token {tok!r} in expression", cur.line, cur.col(at))


def ref_times(kind: ScalarKind, x: tuple, y: tuple) -> tuple:
    """The literal reader's product of two values (rows, scale, monomial),
    their rows convolved coordinate by coordinate through
    ``kind.basis_products``: the reference for ``scalars._times``."""
    (xr, xs, xm), (yr, ys, ym) = x, y
    table, dim, mono = kind.basis_products, kind.dim, xm and ym
    out = {min(xr) + min(yr): [0] * dim} if mono else {}
    for e, a in xr.items():
        for i, ai in enumerate(a):
            if ai:
                for j, r, m in table[i]:
                    am = ai * m
                    for f, b in yr.items():
                        if b[j]:
                            row = out.get(e + f)
                            if row is None:
                                row = out[e + f] = [0] * dim
                            row[r] += am * b[j]
    if not mono:
        out = {e: row for e, row in out.items() if any(row)}
    return out, xs * ys, mono
