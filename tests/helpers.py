"""Seeded samplers and reference implementations used only by the tests."""

from random import Random

from horders.errors import Diagnostics, NotInvertible, OK, failure
from horders.involutions import InvolutionSpec, apply_tau
from horders.matrices import JetMatrix
from horders.orders import BlockOrder, meets_pattern, pattern_of, radical_pattern
from horders.scalars import LaurentJet, Q, Scalar, ScalarKind
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
