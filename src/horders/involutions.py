"""Twisted involutions on block orders and their residue isotropy.

An involution here is x -> a^-1 * tau(x) * a where tau is the
conjugate-transpose over the coefficient scalars and the gauge a
satisfies tau(a) = epsilon * a.  For gauges that are block-diagonal with
each block a power of t times a unit block, the involution descends to
the semisimple quotient blockwise; isotropy of each residue block is
decided by congruence-diagonalising the residue gauge.  Because every
scalar model has a positive definite norm form, the verdict is read off
the signs of the diagonal entries; isotropic vectors are constructed
exactly whenever the norm equation has a rational solution, otherwise
the verdict stands and the witness is omitted.

Well-formedness is decided from entry valuations, without matrix
products.  The involution sends the order generator t^P[i][j] * e_ij to
the matrix with entries a^-1[k][j] * t^P[i][j] * a[i][l].  Gauges live
over unextended kinds, which have no zero divisors, so the valuation
floor of that product is the sum of the factors' floors plus P[i][j]
(truncated entries included; an exactly zero factor gives +infinity).
Stability is therefore the integer inequality
v(a^-1[k][j]) + P[i][j] + v(a[i][l]) >= P[k][l] for all i, j, k, l,
the min-plus statement V(a^-1) * P^T * V(a) >= P.  That sigma squares
to the identity needs no check:
tau(a) = epsilon * a gives tau(a^-1) = epsilon * a^-1, hence
sigma(sigma(x)) = a^-1 * tau(a) * x * tau(a^-1) * a = x.

The valuations of a^-1 are exact: ``JetMatrix.inverse_valuations``
reads them from one fraction-free elimination per connected component
of the nonzero pattern of a (see the ``matrices`` module docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import (
    Diagnostics,
    InsufficientPrecision,
    NotEpsilonHermitian,
    NotInvertible,
    NotStable,
    OK,
    ScalarKindMismatch,
    SingularForm,
    SizeMismatch,
    UnsupportedFormKind,
    UnsupportedGaugeShape,
    failure,
)
from .matrices import JetMatrix
from .orders import BlockOrder, iso_decide, pattern_of
from .scalars import Q, Scalar, ScalarKind, smat_invertible

ANISOTROPIC = "anisotropic"
ISOTROPIC = "isotropic"
DISTINGUISHED = "distinguished"
INCONCLUSIVE = "inconclusive"

SMat = tuple[tuple[Scalar, ...], ...]


@dataclass(frozen=True)
class InvolutionSpec:
    """A gauge and sign defining x -> a^-1 * tau(x) * a on a block order."""

    order: BlockOrder
    gauge: JetMatrix
    epsilon: int = 1

    def __post_init__(self):
        if self.epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if self.gauge.kind != self.order.division.kind:
            raise ScalarKindMismatch(
                f"gauge over {self.gauge.kind}, order over {self.order.division.kind}")
        if self.gauge.n != self.order.sig.n:
            raise SizeMismatch(
                f"gauge is {self.gauge.n}x{self.gauge.n}, order has size {self.order.sig.n}")


@dataclass(frozen=True)
class ResidueBlock:
    size: int
    t_power: int
    gauge: SMat


@dataclass(frozen=True)
class ResidueInvolution:
    """Blockwise data of the induced involution on the semisimple quotient."""

    kind: ScalarKind
    epsilon: int
    blocks: tuple[ResidueBlock, ...]


@dataclass(frozen=True)
class IsotropyResult:
    verdict: str
    signature: tuple[int, int]
    witness: SMat | None = None

    @property
    def is_anisotropic(self) -> bool:
        return self.verdict == ANISOTROPIC


@dataclass(frozen=True)
class DistinguishResult:
    verdict: str
    reason: str | None = None

    @property
    def distinguished(self) -> bool:
        return self.verdict == DISTINGUISHED


# ---------------------------------------------------------------------------
# The involution itself


def apply_tau(x: JetMatrix) -> JetMatrix:
    """Conjugate-transpose with the scalar conjugation."""
    return x.conj_transpose()


def apply_sigma(spec: InvolutionSpec, x: JetMatrix) -> JetMatrix:
    if x.kind != spec.gauge.kind:
        raise ScalarKindMismatch(f"element over {x.kind}, gauge over {spec.gauge.kind}")
    if x.n != spec.gauge.n:
        raise SizeMismatch(f"element is {x.n}x{x.n}, gauge {spec.gauge.n}x{spec.gauge.n}")
    return spec.gauge.inverse() @ apply_tau(x) @ spec.gauge


def _require_wellformed(spec: InvolutionSpec) -> None:
    a = spec.gauge
    ta = apply_tau(a)
    want = a if spec.epsilon == 1 else -a
    if not ta.agrees(want):
        raise NotEpsilonHermitian(f"tau(a) != {spec.epsilon:+d}*a")
    if not a.is_exact:
        raise InsufficientPrecision(
            "well-formedness is decided exactly; the gauge must be exact")
    p = pattern_of(spec.order.sig).entries
    va = [[e.valuation_floor() for e in row] for row in a.rows]
    vinv = a.inverse_valuations()
    n = a.n
    # None is +infinity (an exactly zero entry): that image entry is zero.
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if vinv[k][j] is None:
                    continue
                for l in range(n):
                    if va[i][l] is not None and vinv[k][j] + p[i][j] + va[i][l] < p[k][l]:
                        raise NotStable(
                            f"generator t^{p[i][j]}*e[{i + 1},{j + 1}] leaves the order "
                            f"at entry {k + 1},{l + 1}")


def wellformed(spec: InvolutionSpec) -> Diagnostics:
    """Check the gauge is epsilon-hermitian and invertible and that the
    twisted involution stabilises the order.  First failure wins.

    Stability is read off the valuations of a and the exact valuations
    of a^-1 (see the module docstring); sigma^2 = id follows from the
    hermitian check.  A truncated gauge raises InsufficientPrecision.
    """
    try:
        _require_wellformed(spec)
    except (NotEpsilonHermitian, NotInvertible, NotStable) as exc:
        return failure(type(exc).__name__, str(exc))
    return OK


# ---------------------------------------------------------------------------
# Residue involutions


def residue_involution(spec: InvolutionSpec) -> ResidueInvolution:
    """Blockwise residue data of a supported gauge.

    The gauge must be block-diagonal with block i equal to t^m times a
    unit block over the coefficient order; gauges that mix blocks (and
    would permute the simple factors of the quotient) are rejected.
    """
    _require_wellformed(spec)
    sig = spec.order.sig
    a = spec.gauge
    starts = sig.block_starts()
    for i in range(a.n):
        for j in range(a.n):
            if sig.block_of(i) != sig.block_of(j) and not a.entry(i, j).is_zero():
                raise UnsupportedGaugeShape(
                    f"gauge mixes blocks at entry {i + 1},{j + 1}")
    blocks = []
    for start, size in zip(starts, sig.parts):
        floors = []
        for i in range(start, start + size):
            for j in range(start, start + size):
                f = a.entry(i, j).valuation_floor()
                if f is not None:
                    floors.append(f)
        if not floors:
            raise UnsupportedGaugeShape(f"gauge block at row {start + 1} vanishes")
        m = min(floors)
        res = tuple(
            tuple(a.entry(i, j).coeff(m) for j in range(start, start + size))
            for i in range(start, start + size))
        if not smat_invertible(res):
            raise UnsupportedGaugeShape(
                f"gauge block at row {start + 1} is not t^{m} times a unit block")
        blocks.append(ResidueBlock(size, m, res))
    return ResidueInvolution(a.kind, spec.epsilon, tuple(blocks))


# ---------------------------------------------------------------------------
# Scalar matrices (the residue world)


def smat_identity(kind: ScalarKind, n: int) -> SMat:
    z, o = Scalar.zero(kind), Scalar.one(kind)
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def smat_mul(a: SMat, b: SMat) -> SMat:
    n = len(a)
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(n)),
                  Scalar.zero(a[0][0].kind)) for j in range(n))
        for i in range(n))


def smat_conj_transpose(m: SMat) -> SMat:
    n = len(m)
    return tuple(tuple(m[j][i].conj() for j in range(n)) for i in range(n))


def smat_is_zero(m: SMat) -> bool:
    return all(e.is_zero() for row in m for e in row)


# ---------------------------------------------------------------------------
# Hermitian diagonalisation and isotropy


def diagonalize_form(b: SMat, epsilon: int = 1) -> tuple[list[Fraction], SMat]:
    """Congruence-diagonalise a hermitian scalar matrix.

    Returns (diagonal entries, C) with conj-transpose(C) * b * C equal
    to the diagonal matrix.  The diagonal entries of a hermitian form
    over these scalar models are conjugation-fixed, hence rational.
    """
    if epsilon != 1:
        raise UnsupportedFormKind("only epsilon = +1 forms are diagonalised")
    n = len(b)
    kind = b[0][0].kind
    work = [list(row) for row in b]
    trans = [list(row) for row in smat_identity(kind, n)]

    def col_add(j: int, k: int, c: Scalar) -> None:
        # basis change e_j <- e_j + e_k * c, applied two-sidedly
        for i in range(n):
            work[i][j] = work[i][j] + work[i][k] * c
        cc = c.conj()
        for m in range(n):
            work[j][m] = work[j][m] + cc * work[k][m]
        for i in range(n):
            trans[i][j] = trans[i][j] + trans[i][k] * c

    def col_swap(j: int, k: int) -> None:
        for i in range(n):
            work[i][j], work[i][k] = work[i][k], work[i][j]
        work[j], work[k] = work[k], work[j]
        for i in range(n):
            trans[i][j], trans[i][k] = trans[i][k], trans[i][j]

    for k in range(n):
        if work[k][k].is_zero():
            swap = next((l for l in range(k + 1, n) if not work[l][l].is_zero()), None)
            if swap is not None:
                col_swap(k, swap)
            else:
                found = None
                for i in range(k, n):
                    for j in range(i + 1, n):
                        if not work[i][j].is_zero():
                            found = (i, j)
                            break
                    if found:
                        break
                if found is None:
                    raise SingularForm("form vanishes on a nonzero subspace")
                i, j = found
                col_add(i, j, work[i][j].conj())
                if i != k:
                    col_swap(k, i)
        pivot = work[k][k].rational_value()
        for j in range(k + 1, n):
            if work[k][j].is_zero():
                continue
            col_add(j, k, work[k][j].times(Q(-1) / pivot))
    diag = [work[k][k].rational_value() for k in range(n)]
    if any(d == 0 for d in diag):
        raise SingularForm("diagonalised form has a zero entry")
    return diag, tuple(tuple(row) for row in trans)


def _represent_int(weights: tuple[int, ...], target: int) -> tuple[int, ...] | None:
    """One integer solution of sum(w_i * a_i^2) = target, if any."""
    if target < 0:
        return None
    if not weights:
        return () if target == 0 else None
    w = weights[0]
    a = isqrt(target // w)
    while a >= 0:
        rest = _represent_int(weights[1:], target - w * a * a)
        if rest is not None:
            return (a,) + rest
        a -= 1
    return None


# Largest num * den of a norm that ``represent_norm`` searches for.
_NORM_SEARCH_CAP = 500000


def represent_norm(kind: ScalarKind, rho: Fraction) -> Scalar | None:
    """A scalar of the given kind with norm rho, or None if the bounded
    search finds no rational representation."""
    if rho <= 0:
        return None
    num, den = rho.numerator, rho.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Scalar.rational(kind, Q(rn, rd))
    if kind.core == "base":
        return None
    weights = (1, abs(kind.d)) if kind.core == "quad" else (1, 1, 1, 1)
    target = num * den
    if target > _NORM_SEARCH_CAP:
        return None
    parts = _represent_int(weights, target)
    if parts is None:
        return None
    return Scalar.of(kind, *(Q(a, den) for a in parts))


def anisotropy(b: SMat, kind: ScalarKind, epsilon: int = 1) -> IsotropyResult:
    """Isotropy decision for the residue block gauge b.

    The verdict is anisotropic exactly when the diagonalised form is
    sign-definite.  For an indefinite form an isotropic rank-one matrix
    witness is constructed from a hyperbolic pair of diagonal entries
    whenever the two-variable norm equation has a rational solution;
    the witness is verified exactly before it is returned.
    """
    if epsilon != 1:
        raise UnsupportedFormKind("epsilon = -1 residue forms are not decided")
    if kind.ext is not None:
        raise UnsupportedFormKind("residue forms live over unextended scalar kinds")
    n = len(b)
    for row in b:
        for e in row:
            if e.kind != kind:
                raise ScalarKindMismatch(f"form entry over {e.kind}, expected {kind}")
    if smat_conj_transpose(b) != b:
        raise NotEpsilonHermitian("form matrix is not hermitian")
    diag, trans = diagonalize_form(b, epsilon)
    pos = sum(1 for d in diag if d > 0)
    neg = n - pos
    signature = tuple(sorted((pos, neg), reverse=True))
    if pos == 0 or neg == 0:
        return IsotropyResult(ANISOTROPIC, signature)

    witness = None
    for i in range(n):
        if diag[i] <= 0:
            continue
        for j in range(n):
            if diag[j] >= 0:
                continue
            y = represent_norm(kind, -Q(diag[j]) / Q(diag[i]))
            if y is None:
                continue
            coords = [Scalar.zero(kind)] * n
            coords[i] = y
            coords[j] = Scalar.one(kind)
            vec = [sum((trans[r][c] * coords[c] for c in range(n)), Scalar.zero(kind))
                   for r in range(n)]
            cand = tuple(
                tuple(vec[r] if c == 0 else Scalar.zero(kind) for c in range(n))
                for r in range(n))
            check = smat_mul(smat_conj_transpose(cand), smat_mul(b, cand))
            if smat_is_zero(check) and not smat_is_zero(cand):
                witness = cand
                break
        if witness is not None:
            break
    return IsotropyResult(ISOTROPIC, signature, witness)


def residually_anisotropic(spec: InvolutionSpec) -> bool:
    """True when every residue block of the induced involution is
    anisotropic; a sound obstruction hypothesis, not a classification."""
    res = residue_involution(spec)
    return all(
        anisotropy(blk.gauge, res.kind, res.epsilon).is_anisotropic for blk in res.blocks)


def residue_isotropy(spec: InvolutionSpec) -> list[IsotropyResult]:
    """The ``anisotropy`` result of each residue block, in block order."""
    res = residue_involution(spec)
    return [anisotropy(blk.gauge, res.kind, res.epsilon) for blk in res.blocks]


def distinguish(spec1: InvolutionSpec, spec2: InvolutionSpec) -> DistinguishResult:
    """Sound one-sided non-isomorphism test through residue profiles.

    Compares, as unordered multisets over residue blocks, the triples
    (block size, isotropy verdict, unordered signature pair).  Any
    mismatch certifies non-isomorphism; matching profiles are
    inconclusive.
    """
    if not iso_decide(spec1.order, spec2.order):
        return DistinguishResult(DISTINGUISHED, "underlying orders are non-isomorphic")

    def profile(spec: InvolutionSpec):
        # residue block i has the size of the order's block i
        return sorted((size, iso.verdict, iso.signature)
                      for size, iso in zip(spec.order.sig.parts, residue_isotropy(spec)))

    p1, p2 = profile(spec1), profile(spec2)
    if p1 != p2:
        return DistinguishResult(
            DISTINGUISHED, f"residue profiles differ: {p1} vs {p2}")
    return DistinguishResult(INCONCLUSIVE)
