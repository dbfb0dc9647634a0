"""Seeded samplers and reference implementations used only by the tests."""

from itertools import permutations
from random import Random

from horders import basechange
from horders.errors import Diagnostics, NotInvertible, OK, failure
from horders.involutions import InvolutionSpec, apply_tau
from horders.matrices import JetMatrix
from horders.orders import BlockOrder, Signature, meets_pattern, pattern_of, radical_pattern
from horders.scalars import BASE, LaurentJet, Q, Scalar, ScalarKind
from horders.witness import WitnessCheck


def random_scalar(kind: ScalarKind, rng: Random, bound: int = 3, nonzero: bool = False) -> Scalar:
    while True:
        s = Scalar(kind, tuple(Q(rng.randint(-bound, bound)) for _ in range(kind.dim)))
        if not nonzero or not s.is_zero():
            return s


def random_jet(kind: ScalarKind, rng: Random, *, lowest: int = -2, highest: int = 3,
               bound: int = 3, precision: int | None = None) -> LaurentJet:
    lo = rng.randint(lowest, highest - 1)
    width = rng.randint(1, 3)
    coeffs = [random_scalar(kind, rng, bound) for _ in range(width)]
    return LaurentJet(kind, lo, coeffs, precision)


def kfold_power(x: LaurentJet, k: int) -> LaurentJet:
    """x ** k as |k| successive products of x (of x's inverse when k < 0):
    the reference for the repeated squaring in ``LaurentJet.__pow__``."""
    step = x.inverse() if k < 0 else x
    out = LaurentJet.one(x.kind)
    for _ in range(abs(k)):
        out = out * step
    return out


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
    blocks = []
    for size in order.sig.parts:
        lower = JetMatrix.identity(kind, size)
        upper = JetMatrix.identity(kind, size)
        for i in range(size):
            for j in range(size):
                if i > j:
                    c = random_scalar(kind, rng, bound)
                    lower = lower + JetMatrix.unit(kind, size, i, j, LaurentJet.constant(kind, c))
                elif i < j:
                    c = random_scalar(kind, rng, bound)
                    upper = upper + JetMatrix.unit(kind, size, i, j, LaurentJet.constant(kind, c))
        diag = JetMatrix.diagonal([
            LaurentJet.constant(kind, random_scalar(kind, rng, bound, nonzero=True))
            for _ in range(size)])
        blocks.append(lower @ diag @ upper)
    return JetMatrix.dsum(*blocks)


def wellformed_by_products(spec: InvolutionSpec) -> Diagnostics:
    """Reference for ``wellformed``: applies the involution to every
    order generator with matrix products, checks the image against the
    order pattern and checks that applying it twice gives the generator
    back.  First failure wins."""
    a = spec.gauge
    want = a if spec.epsilon == 1 else -a
    if not apply_tau(a).agrees(want):
        return failure("NotEpsilonHermitian", f"tau(a) != {spec.epsilon:+d}*a")
    try:
        ainv = a.inverse()
    except NotInvertible as exc:
        return failure("NotInvertible", f"gauge is not invertible over the Laurent field: {exc}")
    pattern = pattern_of(spec.order.sig)
    kind = a.kind
    n = a.n
    for i in range(n):
        for j in range(n):
            g = JetMatrix.unit(kind, n, i, j, LaurentJet.t_power(kind, pattern.entries[i][j]))
            image = ainv @ apply_tau(g) @ a
            ok, bad = meets_pattern(image, pattern)
            if not ok:
                return failure(
                    "NotStable",
                    f"generator t^{pattern.entries[i][j]}*e[{i + 1},{j + 1}] leaves the order "
                    f"at entry {bad[0] + 1},{bad[1] + 1}")
            twice = ainv @ apply_tau(image) @ a
            if not twice.agrees(g):
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
    assert a.kind == BASE and a.is_exact and a.n <= 3
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
    want = a if spec.epsilon == 1 else -a
    if not apply_tau(a).agrees(want):
        return failure("NotEpsilonHermitian", f"tau(a) != {spec.epsilon:+d}*a")
    vinv = ref_inverse_valuations(a)
    if vinv is None:
        return failure("NotInvertible", "gauge is not invertible over the Laurent field")
    p = pattern_of(spec.order.sig).entries
    va = [[e.valuation_floor() for e in row] for row in a.rows]
    n = a.n
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


def transport_by_samples(w: WitnessCheck, samples: int = 50, seed: int = 0) -> Diagnostics:
    """Reference for ``transport_check``: the inverse-free identity
    tau(x) * W = W * sigma1(x), W = tau(u) * a2 * u, on every pattern
    generator and then on ``samples`` seeded elements of the order.  Only
    the verdict and code are comparable; the details differ."""
    kind = w._work_kind()

    def promote(x):
        return x if x.kind == kind else x.extended(kind.ext)

    u, a1, a2 = promote(w.u), promote(w.spec1.gauge), promote(w.spec2.gauge)
    try:
        a1_inv = a1.inverse()
    except NotInvertible as exc:
        return failure("NotInvertible", f"first gauge: {exc}")
    try:
        u.inverse()
    except NotInvertible as exc:
        return failure("NotInvertible", f"u: {exc}")
    big = apply_tau(u) @ a2 @ u

    def holds(x: JetMatrix) -> bool:
        return (apply_tau(x) @ big).agrees(big @ (a1_inv @ apply_tau(x) @ a1))

    order = w.spec1.order
    pattern = pattern_of(order.sig)
    n = order.sig.n
    for i in range(n):
        for j in range(n):
            g = JetMatrix.unit(kind, n, i, j, LaurentJet.t_power(kind, pattern.entries[i][j]))
            if not holds(g):
                return failure(
                    "TransportFailed",
                    f"conjugation fails on generator t^{pattern.entries[i][j]}*e[{i + 1},{j + 1}]")
    rng = Random(seed)
    for k in range(samples):
        if not holds(promote(sample_element(order, rng))):
            return failure("TransportFailed", f"conjugation fails on sample #{k + 1}")
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
# Brute-force reference for the base-change pattern identity: build the
# tensored (s*t*n)^2 pattern, conjugate it entry by entry and compare.


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
